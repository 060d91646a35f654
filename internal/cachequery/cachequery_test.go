package cachequery

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
)

// tinyCPU is a scaled-down processor used to exercise the full backend
// machinery (filtering, calibration, slicing) quickly.
func tinyCPU() hw.CPUConfig {
	return hw.CPUConfig{
		Name: "tiny",
		Arch: "Test",
		L1:   hw.LevelConfig{Assoc: 4, Slices: 1, SetsPerSlice: 16, Policy: "PLRU", HitLatency: 4, LatencySigma: 0.5},
		L2:   hw.LevelConfig{Assoc: 4, Slices: 1, SetsPerSlice: 64, Policy: "New1", HitLatency: 12, LatencySigma: 1},
		// The L3 must offer enough capacity per L2 set-index class that
		// L2-congruent pools do not thrash it (slices*assoc*aliasing >=
		// pool size), or inclusive back-invalidation corrupts L2 probes.
		L3:         hw.LevelConfig{Assoc: 8, Slices: 2, SetsPerSlice: 256, Policy: "New2", HitLatency: 40, LatencySigma: 3},
		MemLatency: 190, MemSigma: 15,
	}
}

func testOptions() BackendOptions {
	return BackendOptions{MaxBlocks: 16, Reps: 3, EvictRounds: 1, CalibrationSamples: 21}
}

func TestBackendValidation(t *testing.T) {
	cpu := hw.NewCPU(tinyCPU(), 5)
	if _, err := NewBackend(cpu, Target{Level: hw.L1, Set: 99}, testOptions()); err == nil {
		t.Error("out-of-range set accepted")
	}
	if _, err := NewBackend(cpu, Target{Level: hw.L3, Slice: 7, Set: 0}, testOptions()); err == nil {
		t.Error("out-of-range slice accepted")
	}
	bad := testOptions()
	bad.Reps = 0
	if _, err := NewBackend(cpu, Target{Level: hw.L1, Set: 0}, bad); err == nil {
		t.Error("zero rep count accepted")
	}
	// Even rep counts are fine: the frontend escalates a tied vote to
	// 2·Reps+1 repetitions, so ties resolve rather than being rejected
	// up front.
	even := testOptions()
	even.Reps = 2
	if _, err := NewBackend(cpu, Target{Level: hw.L1, Set: 0}, even); err != nil {
		t.Errorf("even rep count rejected: %v", err)
	}
}

func TestBackendPoolIsCongruent(t *testing.T) {
	cpu := hw.NewCPU(tinyCPU(), 5)
	for _, tgt := range []Target{
		{Level: hw.L1, Set: 3},
		{Level: hw.L2, Set: 17},
		{Level: hw.L3, Slice: 1, Set: 42},
	} {
		be, err := NewBackend(cpu, tgt, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		for i := 0; i < 16; i++ {
			va, err := be.AddressOf(blocks.Name(i))
			if err != nil {
				t.Fatalf("%s: %v", tgt, err)
			}
			slice, set := cpu.SetIndex(tgt.Level, cpu.TranslateToPhys(va))
			if slice != tgt.Slice || set != tgt.Set {
				t.Errorf("%s: block %d maps to slice %d set %d", tgt, i, slice, set)
			}
		}
		if _, err := be.AddressOf("Z9"); err == nil {
			t.Errorf("%s: unprovisioned block accepted", tgt)
		}
	}
}

func TestCalibratedThresholdsSeparateLevels(t *testing.T) {
	cpu := hw.NewCPU(tinyCPU(), 5)
	cases := []struct {
		tgt    Target
		lo, hi float64 // threshold must separate these latencies
	}{
		{Target{Level: hw.L1, Set: 0}, 4, 12},
		{Target{Level: hw.L2, Set: 0}, 12, 40},
		{Target{Level: hw.L3, Slice: 0, Set: 0}, 40, 190},
	}
	for _, c := range cases {
		be, err := NewBackend(cpu, c.tgt, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.tgt, err)
		}
		th := be.Threshold()
		if th <= c.lo+1 || th >= c.hi-1 {
			t.Errorf("%s: threshold %.1f outside (%v, %v)", c.tgt, th, c.lo, c.hi)
		}
	}
}

// TestFilteringEvictsHigherLevels: after an access plus filtering, the block
// must reside at the target level but not above it.
func TestFilteringEvictsHigherLevels(t *testing.T) {
	cpu := hw.NewCPU(tinyCPU(), 5)
	for _, tgt := range []Target{
		{Level: hw.L2, Set: 9},
		{Level: hw.L3, Slice: 0, Set: 21},
	} {
		be, err := NewBackend(cpu, tgt, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", tgt, err)
		}
		va, _ := be.AddressOf("A")
		be.load(cpu.ResolveLine(va))
		be.filter()
		if got := cpu.ResidentLevel(va); got != int(tgt.Level) {
			t.Errorf("%s: block resident at %d after filtering, want %d", tgt, got, int(tgt.Level))
		}
	}
}

func TestFrontendFigureOneToyQueries(t *testing.T) {
	// Figure 1c on a real set: fill, evict with X, probe. On the tiny L1
	// (PLRU-4), X evicts A (the tree points at line 0 after the fill), so
	// A misses and B C D hit.
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 2}
	results, err := f.Query(context.Background(), tgt, "@ X _?")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	want := []cache.Outcome{cache.Miss, cache.Hit, cache.Hit, cache.Hit}
	for i, r := range results {
		if len(r.Outcomes) != 1 {
			t.Fatalf("query %d: %d outcomes", i, len(r.Outcomes))
		}
		if r.Outcomes[0] != want[i] {
			t.Errorf("query %q: %s, want %s", r.Query, r.Outcomes[0], want[i])
		}
	}
}

func TestFlushTagInvalidates(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 0}
	results, err := f.Query(context.Background(), tgt, "@ A! A?")
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Outcomes[0] != cache.Miss {
		t.Error("flushed block still hit")
	}
}

func TestResultCache(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 1}
	if _, err := f.Query(context.Background(), tgt, "@ A?"); err != nil {
		t.Fatal(err)
	}
	before := f.Stats()
	res, err := f.Query(context.Background(), tgt, "@ A?")
	if err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Executed != before.Executed {
		t.Error("cached query re-executed")
	}
	if after.CacheHits <= before.CacheHits {
		t.Error("cache hit not recorded")
	}
	if res[0].Outcomes[0] != cache.Hit {
		t.Error("cached result wrong")
	}

	f.SetResultCache(false)
	b2 := f.Stats()
	if _, err := f.Query(context.Background(), tgt, "@ A?"); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Executed == b2.Executed {
		t.Error("disabled cache still served the query")
	}
}

func TestBatchMode(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	lines, err := f.Batch(context.Background(), hw.L1, []int{0}, []int{0, 1}, []string{"@ A?"})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d batch lines", len(lines))
	}
}

func TestTargetsEnumeration(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	cfg := tinyCPU().L3
	all := f.Targets(hw.L3, -1)
	if len(all) != cfg.Slices*cfg.SetsPerSlice {
		t.Errorf("%d L3 targets", len(all))
	}
	one := f.Targets(hw.L3, 1)
	if len(one) != cfg.SetsPerSlice || one[0].Slice != 1 {
		t.Errorf("slice filter broken: %d targets", len(one))
	}
}

func TestProberMatchesModelCache(t *testing.T) {
	// The hardware prober must agree with the pure model cache on random
	// probe sequences — the foundation of every hardware learning result.
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 7}
	pr, err := NewProber(f, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	model := polca.NewSimProber(policy.MustNew("PLRU", 4))
	seqs := [][]blocks.Block{
		{"A"}, {"E"}, {"A", "B", "E", "A"}, {"E", "F", "G", "A"},
		{"A", "E", "A", "E", "B"}, {"E", "A", "F", "B", "G", "C"},
	}
	for _, q := range seqs {
		hwOut, err := pr.Probe(context.Background(), q)
		if err != nil {
			t.Fatalf("probe %v: %v", q, err)
		}
		simOut, _ := model.Probe(context.Background(), q)
		if hwOut != simOut {
			t.Errorf("probe %v: hardware %v, model %v", q, hwOut, simOut)
		}
	}
}

func TestDiscoverInitialContent(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 4}
	got, err := DiscoverInitialContent(context.Background(), f, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	want := blocks.Ordered(4)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("content[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestLearnPLRUFromTinyHardware runs the full §7 pipeline on the tiny CPU:
// LearnLib-style learner -> Polca -> CacheQuery -> simulated silicon, and
// checks exact equivalence with the installed ground truth.
func TestLearnPLRUFromTinyHardware(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 11}
	pr, err := NewProber(f, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(pr, polca.WithDeterminismChecks(64))
	res, err := learn.Learn(context.Background(), oracle, learn.Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates != 8 {
		t.Errorf("learned %d states, want 8 (PLRU-4)", res.Machine.NumStates)
	}
	truth, _ := mealy.FromPolicy(policy.MustNew("PLRU", 4), 0)
	if eq, ce := res.Machine.Equivalent(truth); !eq {
		t.Errorf("learned machine differs from PLRU-4, ce=%v", ce)
	}
}

// TestLearnNew1FromTinyHardwareL2 learns the Skylake L2 policy (New1)
// through the filtering machinery, using the dedicated reset sequence the
// policy requires. It runs on the concurrent membership-query engine: one
// CPU replica per core, pooled behind a ParallelProber, with the learner
// batching its queries through the shared result store.
func TestLearnNew1FromTinyHardwareL2(t *testing.T) {
	if testing.Short() {
		t.Skip("L2 learning through filtering is expensive; run without -short")
	}
	rr, err := cache.FindResetSequence(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	tgt := Target{Level: hw.L2, Set: 33}
	fronts, err := NewReplicaFrontends(func() *hw.CPU { return hw.NewCPU(tinyCPU(), 5) },
		testOptions(), tgt, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewParallelProber(fronts, tgt, Reset{FlushFirst: rr.FlushFirst, Sequence: rr.Sequence, Content: rr.Content})
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(pr, polca.WithDeterminismChecks(256))
	res, err := learn.Learn(context.Background(), oracle, learn.Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: New1 parked in the state the reset sequence reaches
	// (not the canonical fill state).
	set := cache.NewEmptySet(policy.MustNew("New1", 4))
	for _, b := range rr.Sequence {
		set.Access(b)
	}
	truth, _ := mealy.FromPolicyState(set.Policy(), 0)
	if eq, ce := res.Machine.Equivalent(truth); !eq {
		t.Errorf("learned machine differs from New1 (%d states), ce=%v", res.Machine.NumStates, ce)
	}
	if res.Machine.NumStates != truth.NumStates {
		t.Errorf("learned %d states, ground truth has %d", res.Machine.NumStates, truth.NumStates)
	}
}

// TestProbeFreshBypassesResultCache: the determinism audit's probes must
// reach the cache even when the result store already holds the answer —
// otherwise the audit would replay the first answer and never fire.
func TestProbeFreshBypassesResultCache(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 9}
	pr, err := NewProber(f, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	q := []blocks.Block{"E", "A"}
	first, err := pr.Probe(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	executed := f.Stats().Executed
	if _, err := pr.Probe(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Executed != executed {
		t.Fatal("repeated Probe was not served from the result store")
	}
	fresh, err := pr.ProbeFresh(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().Executed != executed+1 {
		t.Error("ProbeFresh did not re-execute the query")
	}
	if fresh != first {
		t.Errorf("fresh probe answered %v, first answered %v (deterministic CPU)", fresh, first)
	}
}

// TestReprobeRemeasuresPlantedOutcome: the oracle's consistency re-probe
// must re-execute on the CPU, not replay the result store. A wrong outcome
// planted in the store is read once by the ordinary probe, fails the
// "cached block must hit" check, and the re-probe then executes the query
// (one execution, no further store hit) and overwrites the planted entry.
func TestReprobeRemeasuresPlantedOutcome(t *testing.T) {
	ctx := context.Background()
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	tgt := Target{Level: hw.L1, Set: 9}
	rst := FlushRefill(4)
	pr, err := NewProber(f, tgt, rst)
	if err != nil {
		t.Fatal(err)
	}
	// Ln(0) accesses the cached block A: after the reset it must hit.
	q := []blocks.Block{"A"}
	key, err := f.storeKey(tgt, pr.probeOps(q, 1), rst.FlushFirst)
	if err != nil {
		t.Fatal(err)
	}
	f.results.Set(key, encodeOutcomes([]cache.Outcome{cache.Miss}))
	before := f.Stats()

	oracle := polca.NewOracle(pr)
	out, err := oracle.OutputQuery(ctx, []int{0})
	if err != nil {
		t.Fatalf("reprobe did not correct the planted outcome: %v", err)
	}
	if out[0] != policy.Bottom {
		t.Errorf("Ln(0) answered %d, want ⊥", out[0])
	}
	after := f.Stats()
	if got := after.CacheHits - before.CacheHits; got != 1 {
		t.Errorf("%d result-store hits, want 1 (the planted read only)", got)
	}
	if got := after.Executed - before.Executed; got != 1 {
		t.Errorf("%d executions, want 1 (the re-probe)", got)
	}
	if got := oracle.Stats().Reprobes; got != 1 {
		t.Errorf("%d reprobes, want 1", got)
	}
	if enc, _ := f.results.Get(key); enc != "H" {
		t.Errorf("result store holds %q after the re-probe, want the measured H", enc)
	}
}

// TestParallelProberMatchesSerial: a replica pool must answer probes exactly
// like a single prober over the same configuration, and concurrent probes
// (driven through the batched Polca oracle) must stay consistent — run with
// -race to check the shared result store.
func TestParallelProberMatchesSerial(t *testing.T) {
	tgt := Target{Level: hw.L1, Set: 7}
	fronts, err := NewReplicaFrontends(func() *hw.CPU { return hw.NewCPU(tinyCPU(), 5) },
		testOptions(), tgt, 3)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewParallelProber(fronts, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	if pp.Replicas() != 3 || !pp.ConcurrentProbes() {
		t.Fatalf("pool of %d replicas, concurrent=%v", pp.Replicas(), pp.ConcurrentProbes())
	}
	serialF := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	serial, err := NewProber(serialF, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][]blocks.Block{
		{"A"}, {"E"}, {"A", "B", "E", "A"}, {"E", "F", "G", "A"},
		{"A", "E", "A", "E", "B"}, {"E", "A", "F", "B", "G", "C"},
	}
	for _, q := range seqs {
		got, err := pp.Probe(context.Background(), q)
		if err != nil {
			t.Fatalf("probe %v: %v", q, err)
		}
		want, err := serial.Probe(context.Background(), q)
		if err != nil {
			t.Fatalf("serial probe %v: %v", q, err)
		}
		if got != want {
			t.Errorf("probe %v: pool %v, serial %v", q, got, want)
		}
	}

	// Repeats are the oracle's to answer: its memo serves a repeated word
	// with no new execution. The replicas keep no result cache, so a
	// repeated raw pool probe executes again.
	oracle := polca.NewOracle(pp, polca.WithParallelism(3))
	word := []int{0, 4, 1, 4, 2} // Ln(0) Evct Ln(1) Evct Ln(2) at assoc 4
	first, err := oracle.OutputQuery(context.Background(), word)
	if err != nil {
		t.Fatal(err)
	}
	before := pp.FrontendStats()
	again, err := oracle.OutputQuery(context.Background(), word)
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.FrontendStats().Executed - before.Executed; got != 0 {
		t.Errorf("repeated word executed %d probes, want 0 (oracle memo)", got)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("repeated word answered %v, first %v", again, first)
	}
	before = pp.FrontendStats()
	for _, q := range seqs {
		if _, err := pp.Probe(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	after := pp.FrontendStats()
	if got := after.Executed - before.Executed; got != len(seqs) {
		t.Errorf("repeated raw probes executed %d queries, want %d", got, len(seqs))
	}
	if after.CacheHits != 0 {
		t.Errorf("replica pool served %d result-cache hits, want 0", after.CacheHits)
	}
}

// TestParallelHardwareLearningMatchesSerial learns the tiny L1 PLRU both
// ways — single prober versus a replica pool driven by batched queries on
// parallel goroutines — and requires the exact same machine.
func TestParallelHardwareLearningMatchesSerial(t *testing.T) {
	tgt := Target{Level: hw.L1, Set: 11}
	serialF := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	serialPr, err := NewProber(serialF, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	serialRes, err := learn.Learn(context.Background(), polca.NewOracle(serialPr), learn.Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}

	fronts, err := NewReplicaFrontends(func() *hw.CPU { return hw.NewCPU(tinyCPU(), 5) },
		testOptions(), tgt, 4)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewParallelProber(fronts, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := learn.Learn(context.Background(), polca.NewOracle(pp, polca.WithParallelism(4)), learn.Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := parRes.Machine.Equivalent(serialRes.Machine); !eq {
		t.Fatalf("parallel learning diverged from serial, ce=%v", ce)
	}
	truth, _ := mealy.FromPolicy(policy.MustNew("PLRU", 4), 0)
	if eq, ce := parRes.Machine.Equivalent(truth); !eq {
		t.Errorf("parallel-learned machine differs from PLRU-4, ce=%v", ce)
	}
}

// TestWrongResetIsDetected: using Flush+Refill on the New1 L2 (where it is
// not a valid reset) must be flagged as nondeterminism rather than silently
// producing a wrong model — the paper's bootstrapping observation (§7.1).
func TestWrongResetIsDetected(t *testing.T) {
	f := NewFrontend(hw.NewCPU(tinyCPU(), 5), testOptions())
	f.SetResultCache(false) // caching would mask the inconsistency
	tgt := Target{Level: hw.L2, Set: 8}
	pr, err := NewProber(f, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(pr, polca.WithDeterminismChecks(4))
	_, err = learn.Learn(context.Background(), oracle, learn.Options{Depth: 1, MaxStates: 2000})
	if err == nil {
		t.Fatal("learning with an invalid reset sequence succeeded")
	}
}

// TestProvisionRealModels exercises backend provisioning on the full-size
// CPU models, including a sliced Haswell L3 leader set.
func TestProvisionRealModels(t *testing.T) {
	cases := []struct {
		cfg hw.CPUConfig
		tgt Target
	}{
		{hw.Skylake(), Target{Level: hw.L2, Set: 1023}},
		{hw.Haswell(), Target{Level: hw.L3, Slice: 0, Set: 512}},
		{hw.KabyLake(), Target{Level: hw.L3, Slice: 7, Set: 33}},
	}
	for _, c := range cases {
		be, err := NewBackend(hw.NewCPU(c.cfg, 8), c.tgt, DefaultBackendOptions())
		if err != nil {
			t.Fatalf("%s %s: %v", c.cfg.Name, c.tgt, err)
		}
		if th := be.Threshold(); th <= c.cfg.Config(c.tgt.Level).HitLatency {
			t.Errorf("%s %s: threshold %.1f below the hit latency", c.cfg.Name, c.tgt, th)
		}
	}
}

// A block name with a huge round number has a huge dense universe id; the
// binding table must not be grown to the id (an unbounded allocation) — the
// block binds through the overflow map, or fails with the pool-exhaustion
// error, exactly like any other block.
func TestAddressOfLargeBlockID(t *testing.T) {
	cpu := hw.NewCPU(tinyCPU(), 5)
	be, err := NewBackend(cpu, Target{Level: hw.L1, Set: 0}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.AddressOf("A"); err != nil {
		t.Fatal(err)
	}
	// "A9999" has id 259974, past the dense binding table's cap.
	va, err := be.AddressOf("A9999")
	if err != nil {
		t.Fatalf("large-id block failed to bind: %v", err)
	}
	if va2, err := be.AddressOf("A9999"); err != nil || va2 != va {
		t.Fatalf("rebinding large-id block: got %v, %v; want %v", va2, err, va)
	}
	// A name beyond the universe bound is rejected, not bound (and never
	// grows the binding table towards its id).
	if _, err := be.AddressOf("A99999999"); err == nil {
		t.Fatal("expected error for block name beyond blocks.MaxIndex")
	}
	// Exhaust the pool; the next fresh block (large id or not) must error.
	for i := 1; ; i++ {
		if _, err := be.AddressOf(blocks.Name(i)); err != nil {
			break
		}
		if i > 1<<20 {
			t.Fatal("pool never exhausted")
		}
	}
	if _, err := be.AddressOf("B9999"); err == nil {
		t.Fatal("expected pool-exhaustion error for fresh large-id block")
	}
}
