// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design decisions called out in
// DESIGN.md. Heavy hardware-pipeline benchmarks execute a single iteration
// under the default -benchtime; expect several minutes for the full suite.
//
//	go test -bench=. -benchmem
//	go test -bench=Table2 -benchtime=1x
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/fingerprint"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/permpol"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/qstore"
	"repro/internal/synth"
)

// BenchmarkFig1Pipeline runs the toy end-to-end pipeline of Figure 1:
// CacheQuery -> Polca -> learner -> synthesized explanation on a simulated
// 2-way set. The process's first run also pays the one-time compiles of
// the toy CPU's policies, shared by every later CPU; it runs before the
// timer starts and is reported on its own as cold-ns, so ns/op is the
// steady state.
func BenchmarkFig1Pipeline(b *testing.B) {
	fig1Cold.Do(func() {
		start := time.Now()
		if _, err := experiments.RunFigure1(context.Background()); err != nil {
			b.Fatal(err)
		}
		fig1ColdNs = float64(time.Since(start).Nanoseconds())
	})
	b.ResetTimer() // also drops reported metrics, so report after it
	b.ReportMetric(fig1ColdNs, "cold-ns")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure1(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// fig1Cold times the process's first Figure 1 run exactly once: the
// testing package calls a benchmark function several times while sizing
// b.N, and only the first call is cold.
var (
	fig1Cold   sync.Once
	fig1ColdNs float64
)

// BenchmarkTable2 learns policies from software-simulated caches (§6). The
// sub-benchmark set is the feasible core of Table 2; run cmd/experiments
// with -full for the multi-hour instances. Each row reports the learner's
// trajectory counters, so the baseline pins the exact run alongside its
// time.
func BenchmarkTable2(b *testing.B) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"FIFO", 16}, {"LRU", 4}, {"PLRU", 8}, {"MRU", 8},
		{"LIP", 4}, {"SRRIP-HP", 4}, {"SRRIP-FP", 4}, {"New1", 4}, {"New2", 4},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s-%d", c.name, c.assoc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row := experiments.RunTable2Row(context.Background(), c.name, c.assoc, experiments.Table2Config{})
				if !row.Verified {
					b.Fatalf("row failed: %+v", row)
				}
				b.ReportMetric(float64(row.Learn.OutputQueries), "queries/op")
				b.ReportMetric(float64(row.Learn.QuerySymbols), "symbols/op")
				b.ReportMetric(float64(row.Learn.TestWords), "testwords/op")
				b.ReportMetric(float64(row.Learn.Rounds), "rounds/op")
			}
		})
	}
}

// BenchmarkTable4 learns policies through the full hardware pipeline (§7)
// on the simulated Skylake: the L1 PLRU and, in non-short mode, the L2
// New1. Each iteration is a complete provisioning + calibration + learning
// run; expect seconds (L1) to minutes (L2) per iteration. The replica
// pool is pinned to two CPUs, so the learner's batch width — and with it
// every reported counter — does not follow the host's core count.
func BenchmarkTable4(b *testing.B) {
	jobs := []struct {
		name  string
		level hw.Level
		short bool // cheap enough for every run
	}{
		{"SkylakeL1-PLRU", hw.L1, true},
		{"SkylakeL2-New1", hw.L2, false},
	}
	for _, j := range jobs {
		b.Run(j.name, func(b *testing.B) {
			if !j.short && testing.Short() {
				b.Skip("hardware L2 learning is expensive; run without -short")
			}
			cfg := hw.Skylake()
			pol := policy.MustNew(cfg.Config(j.level).Policy, cfg.Config(j.level).Assoc)
			for i := 0; i < b.N; i++ {
				req := core.HardwareRequest{
					CPU:              hw.NewCPU(cfg, 77),
					NewCPU:           func() *hw.CPU { return hw.NewCPU(cfg, 77) },
					Replicas:         2,
					Target:           cachequery.Target{Level: j.level, Set: 0},
					Backend:          cachequery.DefaultBackendOptions(),
					Resets:           core.ResetCandidatesFor(pol),
					Learn:            learn.Options{Depth: 1, MaxStates: 4096},
					DeterminismEvery: 128,
				}
				res, err := core.LearnHardware(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				truth, err := core.GroundTruthAfterReset(pol, res.Reset)
				if err != nil {
					b.Fatal(err)
				}
				if eq, _ := res.Machine.Equivalent(truth); !eq {
					b.Fatal("learned machine differs from the installed policy")
				}
				b.ReportMetric(float64(res.LearnStats.OutputQueries), "queries/op")
				b.ReportMetric(float64(res.LearnStats.QuerySymbols), "symbols/op")
				b.ReportMetric(float64(res.LearnStats.TestWords), "testwords/op")
				b.ReportMetric(float64(res.LearnStats.Rounds), "rounds/op")
				b.ReportMetric(float64(res.OracleStats.Probes), "probes/op")
				b.ReportMetric(float64(res.OracleStats.Accesses), "accesses/op")
			}
		})
	}
}

// BenchmarkTable5 synthesizes explanations for the Table 5 policies at
// associativity 4, including the PLRU exhaustion (the paper's "—" row).
func BenchmarkTable5(b *testing.B) {
	for _, name := range experiments.Table5Policies() {
		b.Run(name, func(b *testing.B) {
			m, err := mealy.FromPolicy(policy.MustNew(name, 4), 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, err := synth.Synthesize(m, synth.Options{Seed: 1})
				if name == "PLRU" {
					if err == nil {
						b.Fatal("PLRU unexpectedly synthesized")
					}
				} else if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryCost measures the execution time of the MBL query `@ M _?`
// per cache level on the simulated Skylake — the §7.2 measurement.
func BenchmarkQueryCost(b *testing.B) {
	for _, lvl := range []hw.Level{hw.L1, hw.L2, hw.L3} {
		b.Run(lvl.String(), func(b *testing.B) {
			cpu := hw.NewCPU(hw.Skylake(), 22)
			f := cachequery.NewFrontend(cpu, cachequery.DefaultBackendOptions())
			f.SetResultCache(false)
			tgt := cachequery.Target{Level: lvl, Set: 0}
			if _, err := f.Backend(tgt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Query(context.Background(), tgt, "@ M _?"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeaderScan runs a reduced Appendix B scan: classify a handful of
// Skylake L3 sets (two leaders of each kind plus followers) under both
// set-dueling steerings.
func BenchmarkLeaderScan(b *testing.B) {
	model := hw.Skylake()
	sample := []int{0, 1, 33, 62, 63, 5}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLeaderScan(context.Background(), model, sample, 2)
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct != len(sample) {
			b.Fatalf("misclassified %d/%d sets", len(sample)-res.Correct, len(sample))
		}
	}
}

// BenchmarkBaselines compares the prior-art approaches of §6/§10 against
// Polca-based learning on MRU-4 (a policy outside the permutation class):
// the Abel–Reineke permutation baseline on an in-scope policy, nanoBench
// fingerprinting, and full automata learning.
func BenchmarkBaselines(b *testing.B) {
	b.Run("permutation-LRU4", func(b *testing.B) {
		truth, _ := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
		for i := 0; i < b.N; i++ {
			if _, err := permpol.InferAndValidate(context.Background(), polca.NewSimProber(policy.MustNew("LRU", 4)), truth); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fingerprint-MRU4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := fingerprint.Identify(context.Background(), polca.NewSimProber(policy.MustNew("MRU", 4)),
				fingerprint.DefaultPool(), fingerprint.Options{Seed: 42})
			if err != nil || len(res.Matches) != 1 || res.Matches[0] != "MRU" {
				b.Fatalf("fingerprinting failed: %v %v", res, err)
			}
		}
	})
	b.Run("learning-MRU4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LearnSimulated(context.Background(), core.SimRequest{
				Policy: "MRU",
				Assoc:  4,
				Learn:  learn.Options{Depth: 1},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSuite compares the paper's Wp-method against the plain
// W-method on the same learning task.
func BenchmarkAblationSuite(b *testing.B) {
	truth, _ := mealy.FromPolicy(policy.MustNew("SRRIP-HP", 4), 0)
	for _, suite := range []struct {
		name string
		s    learn.Suite
	}{{"wp", learn.SuiteWp}, {"w", learn.SuiteW}} {
		b.Run(suite.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := learn.Learn(context.Background(), learn.MachineTeacher{M: truth}, learn.Options{Depth: 1, Suite: suite.s})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.TestWords), "testwords/op")
			}
		})
	}
}

// BenchmarkAblationTrie tracks the prefix-tree query engine on harder
// policies: trie-memoized outputs, parked resumable sessions, and the
// prefix-sharing learner memo. The leg verifies the learned machine against
// the extracted ground truth.
func BenchmarkAblationTrie(b *testing.B) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"SRRIP-FP", 4}, {"New1", 4}} {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%d/trie", c.name, c.assoc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew(c.name, c.assoc)))
				res, err := learn.Learn(context.Background(), oracle, learn.Options{Depth: 1})
				if err != nil {
					b.Fatal(err)
				}
				if eq, ce := res.Machine.Equivalent(truth); !eq {
					b.Fatalf("learned machine differs from ground truth, ce=%v", ce)
				}
				st := oracle.Stats()
				b.ReportMetric(float64(st.Probes), "probes/op")
				b.ReportMetric(float64(st.Accesses), "accesses/op")
				b.ReportMetric(float64(st.MemoHits), "memohits/op")
			}
		})
	}
}

// BenchmarkAblationKernel quantifies the compiled policy kernel on
// simulated probes: the same exhaustive output-query load (every policy
// word up to depth 5) is answered in one OutputQueryBatch by a fresh
// oracle's query engine, once on the compiled executor ("batched": dense
// transition tables, one int32 table state per parked position) and
// once on the session executor over the interpreted Policy interface
// ("interpreted": virtual dispatch per access, deep policy clones per
// fork — polca.NewInterpretedSimProber). The prober — and with it the
// one-time compilation — is built outside the timed loop, so the legs
// compare pure execution cost. The deterministic counters (probes/op,
// accesses/op) are identical across legs by construction — the kernel
// changes only ns/op and allocs/op, which is exactly what this benchmark
// tracks.
func BenchmarkAblationKernel(b *testing.B) {
	cases := []struct {
		name  string
		assoc int
	}{
		{"LRU", 4}, {"SRRIP-HP", 4}, {"New1", 4},
	}
	legs := []struct {
		name string
		mk   func(name string, assoc int) polca.Prober
	}{
		{"batched", func(n string, a int) polca.Prober { return polca.NewSimProber(policy.MustNew(n, a)) }},
		{"interpreted", func(n string, a int) polca.Prober { return polca.NewInterpretedSimProber(policy.MustNew(n, a)) }},
	}
	for _, c := range cases {
		words := qstore.Enumerate(policy.NumInputs(c.assoc), 5)[1:]
		for _, l := range legs {
			b.Run(fmt.Sprintf("%s-%d/%s", c.name, c.assoc, l.name), func(b *testing.B) {
				prober := l.mk(c.name, c.assoc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					oracle := polca.NewOracle(prober)
					if _, err := oracle.OutputQueryBatch(context.Background(), words); err != nil {
						b.Fatal(err)
					}
					st := oracle.Stats()
					b.ReportMetric(float64(st.Probes), "probes/op")
					b.ReportMetric(float64(st.Accesses), "accesses/op")
				}
			})
		}
	}
}

// BenchmarkAblationAlgo compares the two learning algorithms on identical
// Polca-backed learning tasks: the L*-style observation table (the paper's
// setting) versus the discrimination-tree learner, which stores only the
// experiments that separate states and decomposes counterexamples by
// Rivest–Schapire binary search. queries/op counts the learner's distinct
// membership (output) queries, symbols/op the input symbols across them;
// probes/op and accesses/op are the oracle-side costs behind those queries.
// Every leg verifies the learned machine against the extracted ground truth.
func BenchmarkAblationAlgo(b *testing.B) {
	cases := []struct {
		name  string
		assoc int
	}{
		// SRRIP-HP-4 is the one published policy where the tree learner
		// asks ~7% more queries than L*; tracking it here keeps that
		// honest regression under the benchjson gate.
		{"LRU", 4}, {"New1", 4}, {"SRRIP-FP", 4}, {"SRRIP-HP", 4},
	}
	algos := []struct {
		name string
		a    learn.Algo
	}{{"lstar", learn.AlgoLStar}, {"tree", learn.AlgoTree}}
	for _, c := range cases {
		truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, al := range algos {
			b.Run(fmt.Sprintf("%s-%d/%s", c.name, c.assoc, al.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew(c.name, c.assoc)))
					res, err := learn.Learn(context.Background(), oracle, learn.Options{Depth: 1, Algo: al.a})
					if err != nil {
						b.Fatal(err)
					}
					if eq, ce := res.Machine.Equivalent(truth); !eq {
						b.Fatalf("learned machine differs from ground truth, ce=%v", ce)
					}
					st := oracle.Stats()
					b.ReportMetric(float64(res.Stats.OutputQueries), "queries/op")
					b.ReportMetric(float64(res.Stats.QuerySymbols), "symbols/op")
					b.ReportMetric(float64(st.Probes), "probes/op")
					b.ReportMetric(float64(st.Accesses), "accesses/op")
				}
			})
		}
	}
}

// BenchmarkStoreParallel quantifies the lock striping of the shared query
// store (internal/qstore) under contention. The store legs hammer one
// store from 8 goroutines with a mixed read/write load over the LRU-4
// policy alphabet — stripes=1 is the single-mutex configuration the
// pre-qstore oracle was stuck with, striped is the default one-shard-per-
// input-symbol layout.
//
// The wall-clock gap is a function of real cores: on a single-core machine
// the legs coincide (8 goroutines time-slice one CPU, so no lock is ever
// contended for long), and the striping gain materializes on multi-core
// runners. Striping must never change the work, only the waiting.
func BenchmarkStoreParallel(b *testing.B) {
	words := qstore.Enumerate(5, 6)[1:]
	store := func(b *testing.B, stripes int) {
		b.ReportAllocs()
		st := qstore.New[int, int](qstore.Options{Degree: 5, Stripes: stripes, Sync: true})
		const workers = 8
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j, word := range words {
						if (j+w)%2 == 0 {
							st.Set(word, j)
						} else {
							st.Get(word)
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
	b.Run("store/stripes=1", func(b *testing.B) { store(b, 1) })
	b.Run("store/striped", func(b *testing.B) { store(b, 5) })
}

// BenchmarkSnapshotWarm quantifies warm-started learning: a cold run
// learns New1-4 from scratch while a warm run loads the oracle's
// query-store snapshot first and replays every recorded answer from it.
// probes/op is the criterion metric — the warm leg must sit >= 90% below
// the cold leg (with a deterministic simulator it is exactly zero).
func BenchmarkSnapshotWarm(b *testing.B) {
	const scope = "bench:New1-4"
	var snap bytes.Buffer
	seed := polca.NewOracle(polca.NewSimProber(policy.MustNew("New1", 4)))
	if _, err := learn.Learn(context.Background(), seed, learn.Options{Depth: 1}); err != nil {
		b.Fatal(err)
	}
	if err := seed.SaveSnapshot(&snap, scope); err != nil {
		b.Fatal(err)
	}
	data := snap.Bytes()
	leg := func(b *testing.B, warm bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracle := polca.NewOracle(polca.NewSimProber(policy.MustNew("New1", 4)))
			if warm {
				if err := oracle.LoadSnapshot(bytes.NewReader(data), scope); err != nil {
					b.Fatal(err)
				}
			}
			res, err := learn.Learn(context.Background(), oracle, learn.Options{Depth: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.Machine.NumStates != 160 {
				b.Fatalf("learned %d states, want 160", res.Machine.NumStates)
			}
			b.ReportMetric(float64(oracle.Stats().Probes), "probes/op")
			b.ReportMetric(float64(oracle.Stats().Accesses), "accesses/op")
		}
	}
	b.Run("cold", func(b *testing.B) { leg(b, false) })
	b.Run("warm", func(b *testing.B) { leg(b, true) })
}

// BenchmarkAblationPolca quantifies the data-independence abstraction:
// learning the policy through Polca versus learning the raw cache automaton
// over a concrete block alphabet, which multiplies the state space by the
// block arrangements (§3.2).
func BenchmarkAblationPolca(b *testing.B) {
	b.Run("polca-LRU4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.LearnSimulated(context.Background(), core.SimRequest{
				Policy: "LRU",
				Assoc:  4,
				Learn:  learn.Options{Depth: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Machine.NumStates), "states")
		}
	})
	b.Run("direct-LRU4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := learn.Learn(context.Background(), &cacheTeacher{name: "LRU", assoc: 4, numBlocks: 5}, learn.Options{Depth: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Machine.NumStates), "states")
		}
	})
}

// cacheTeacher exposes the raw cache LTS (inputs: concrete blocks, outputs:
// hit/miss) to the learner, bypassing Polca — the baseline the paper
// compares against conceptually (and the reason direct learning does not
// scale: the hypothesis must encode the data-storage logic too).
type cacheTeacher struct {
	name      string
	assoc     int
	numBlocks int
}

func (t *cacheTeacher) NumInputs() int { return t.numBlocks }

func (t *cacheTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	tab, err := policy.CompileNamed(t.name, t.assoc, policy.DefaultCompileStates)
	if err != nil {
		return nil, err
	}
	prober := polca.NewSimProber(tab.At(tab.InitState()))
	sess, err := prober.NewSession()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(word))
	for i, in := range word {
		oc, err := sess.Access(fmt.Sprintf("B%d", in+1))
		if err != nil {
			return nil, err
		}
		if oc {
			out[i] = 1
		}
	}
	return out, nil
}

// BenchmarkAblationDepth varies the conformance suite depth k (§3.4) while
// learning MRU-4.
func BenchmarkAblationDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("k=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.LearnSimulated(context.Background(), core.SimRequest{
					Policy: "MRU",
					Assoc:  4,
					Learn:  learn.Options{Depth: depth},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.LearnStats.TestWords), "testwords/op")
			}
		})
	}
}

// BenchmarkAblationSynthPrefilter compares CEGIS with seeded witness traces
// against pure counterexample-driven CEGIS (every surviving candidate costs
// a product-equivalence check) on the LRU synthesis. Both legs run one
// synthesis worker: they ablate the prefilter, not the worker count, so
// their B/op and allocs/op do not scale with the host's cores.
func BenchmarkAblationSynthPrefilter(b *testing.B) {
	m, err := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := synth.Synthesize(m, synth.Options{Seed: 1, Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pure-cegis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := synth.Synthesize(m, synth.Options{Seed: 1, SeedWitnesses: -1, Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSynthParallel is the parallel-CEGIS ablation: the serial
// interpreted search (one Program execution per candidate per witness)
// against the batched SoA witness kernel at 1 and 8 workers, on the two
// heaviest explainable Table 5 syntheses. The synthesized program and the
// candidates/op counter are byte-identical across all legs — that is the
// determinism contract of the sharded search — so candidates/op rides the
// strict benchjson gate while ns/op records the kernel's wall-clock win
// (the ≥4x batched-vs-interpreted speedup holds on a single core: it comes
// from allocation-free lockstep lanes, not from OS parallelism).
func BenchmarkSynthParallel(b *testing.B) {
	for _, name := range []string{"New2", "SRRIP-FP"} {
		m, err := mealy.FromPolicy(policy.MustNew(name, 4), 0)
		if err != nil {
			b.Fatal(err)
		}
		legs := []struct {
			label string
			opt   synth.Options
		}{
			{"serial-interpreted", synth.Options{Seed: 1, Parallelism: 1, Interpreted: true}},
			{"batched-x1", synth.Options{Seed: 1, Parallelism: 1}},
			{"batched-x8", synth.Options{Seed: 1, Parallelism: 8}},
		}
		for _, leg := range legs {
			b.Run(fmt.Sprintf("%s-4/%s", name, leg.label), func(b *testing.B) {
				b.ReportAllocs()
				var res *synth.Result
				for i := 0; i < b.N; i++ {
					res, err = synth.Synthesize(m, leg.opt)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Candidates), "candidates/op")
			})
		}
	}
}

// BenchmarkDaemonQueries measures polcad's serving path end to end: real
// HTTP requests against the daemon handler, fanned out from 1, 8 and 64
// concurrent clients, each driving its own seeded stream of query words at
// LRU-4 (the polcaload shape, so client streams overlap heavily). The cold
// legs build a fresh daemon per iteration — every answer costs simulator
// probes; the warm legs share one daemon whose engine has already answered
// the full word set, so every request is a store hit and the number is the
// HTTP+memo serving floor.
//
// queries/op is deterministic (clients x requests per client x words). qps
// is wall-clock throughput — higher is better, and cmd/benchjson gates it
// inverted (a qps drop is the regression).
func BenchmarkDaemonQueries(b *testing.B) {
	const perClient = 32
	words := func(client int) [][]int {
		rng := rand.New(rand.NewSource(int64(client) + 1))
		out := make([][]int, perClient)
		for i := range out {
			w := make([]int, 1+rng.Intn(6))
			for j := range w {
				w[j] = rng.Intn(5)
			}
			out[i] = w
		}
		return out
	}
	drive := func(b *testing.B, ts *httptest.Server, clients int) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, w := range words(c) {
					body, _ := json.Marshal(map[string]any{"policy": "LRU", "assoc": 4, "word": w})
					resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
					if err != nil {
						b.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						b.Errorf("status %d", resp.StatusCode)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	for _, clients := range []int{1, 8, 64} {
		queries := float64(clients * perClient)
		b.Run(fmt.Sprintf("LRU-4/%dclients/cold", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				srv := daemon.New(daemon.Config{})
				ts := httptest.NewServer(srv.Handler())
				b.StartTimer()
				drive(b, ts, clients)
				b.StopTimer()
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				srv.Close(ctx)
				cancel()
				b.StartTimer()
			}
			b.ReportMetric(queries, "queries/op")
			b.ReportMetric(queries*float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
		b.Run(fmt.Sprintf("LRU-4/%dclients/warm", clients), func(b *testing.B) {
			srv := daemon.New(daemon.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				srv.Close(ctx)
				cancel()
			}()
			drive(b, ts, clients) // fill the engine store
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drive(b, ts, clients)
			}
			b.ReportMetric(queries, "queries/op")
			b.ReportMetric(queries*float64(b.N)/b.Elapsed().Seconds(), "qps")
		})
	}
}
