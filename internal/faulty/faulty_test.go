package faulty

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/polca"
	"repro/internal/policy"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42,err=0.05,stall=0.01:5ms,flip=0.001,die=1@500,crash=2000",
		"seed=7,err=0.1",
		"seed=1,flip=0.25",
		"seed=3,die=0@10",
		"seed=1",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("ParsePlan(%q).String() = %q", spec, got)
		}
		back, err := ParsePlan(p.String())
		if err != nil || back != p {
			t.Errorf("round trip of %q changed the plan: %+v vs %+v (%v)", spec, back, p, err)
		}
	}
}

func TestParsePlanDefaultsAndEmpty(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("empty spec not empty: %+v", p)
	}
	if p.DieReplica != -1 || p.StallFor != 2*time.Millisecond || p.Seed != 1 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if q, err := ParsePlan("err=0.05"); err != nil || q.Empty() {
		t.Errorf("err=0.05 plan: %+v, %v", q, err)
	}
}

func TestParsePlanRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"err=1.5",         // rate out of [0,1]
		"flip=-0.1",       // negative rate
		"err",             // no value
		"die=1",           // missing @count
		"stall=0.5:bogus", // bad duration
		"unknown=1",       // unknown key
		"seed=abc",        // non-integer seed
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

// TestInjectorDeterminism: two injectors with the same plan make identical
// decisions for the same content/attempt pairs, even when one of them is
// driven from many goroutines in arbitrary interleavings.
func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, ErrRate: 0.2, FlipRate: 0.1, StallRate: 0.05, StallFor: time.Microsecond, DieReplica: -1}
	contents := []uint64{1, 2, 3, 0xDEADBEEF, 1 << 40}
	const attempts = 50

	type key struct {
		content uint64
		attempt int
	}
	record := func(inj *Injector, parallel bool) map[key]decision {
		out := make(map[key]decision)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, c := range contents {
			c := c
			run := func() {
				defer wg.Done()
				for a := 0; a < attempts; a++ {
					d := inj.decide(c)
					mu.Lock()
					out[key{c, a}] = decision{err: d.err, stall: d.stall, flip: d.flip}
					mu.Unlock()
				}
			}
			wg.Add(1)
			if parallel {
				go run()
			} else {
				run()
			}
		}
		wg.Wait()
		return out
	}

	serial := record(NewInjector(plan), false)
	concurrent := record(NewInjector(plan), true)
	var faults int
	for k, a := range serial {
		b := concurrent[k]
		if (a.err == nil) != (b.err == nil) || a.flip != b.flip || a.stall != b.stall {
			t.Fatalf("decision for %+v differs across interleavings: %+v vs %+v", k, a, b)
		}
		if a.err != nil || a.flip || a.stall > 0 {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("plan with 20% error rate injected nothing over 250 decisions")
	}

	// A different seed must produce a different fault pattern.
	other := record(NewInjector(Plan{Seed: 43, ErrRate: 0.2, FlipRate: 0.1, DieReplica: -1}), false)
	same := true
	for k, a := range serial {
		b := other[k]
		if (a.err == nil) != (b.err == nil) || a.flip != b.flip {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical fault patterns")
	}
}

// TestInjectorRetriesProgress: a fault on attempt k must not imply a fault on
// attempt k+1 of the same content — otherwise retry policies could never make
// progress past an unlucky probe.
func TestInjectorRetriesProgress(t *testing.T) {
	inj := NewInjector(Plan{Seed: 9, ErrRate: 0.3, DieReplica: -1})
	const content = 12345
	consecutive, worst := 0, 0
	for a := 0; a < 200; a++ {
		if d := inj.decide(content); d.err != nil {
			consecutive++
			if consecutive > worst {
				worst = consecutive
			}
		} else {
			consecutive = 0
		}
	}
	// P(8 consecutive faults at rate 0.3) ≈ 6.6e-5 per window; with a fixed
	// seed this is a deterministic regression check, not a flaky bound.
	if worst >= 8 {
		t.Errorf("%d consecutive faults on one content; retries cannot progress", worst)
	}
}

func TestInjectorCrashAfter(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, CrashAfter: 5, DieReplica: -1})
	for i := 0; i < 5; i++ {
		if d := inj.decide(uint64(i)); errors.Is(d.err, ErrCrash) {
			t.Fatalf("crashed at execution %d, budget 5", i+1)
		}
	}
	d := inj.decide(99)
	if !errors.Is(d.err, ErrCrash) {
		t.Fatal("execution 6 did not crash")
	}
	// The crash is permanent and is NOT transient: retries must not absorb it.
	if polca.IsTransient(d.err) {
		t.Error("ErrCrash is transient; retry would mask the crash")
	}
	if d = inj.decide(99); !errors.Is(d.err, ErrCrash) {
		t.Error("crash did not persist")
	}
}

func TestInjectedErrIsTransient(t *testing.T) {
	e := &Err{Kind: "transient", Seq: 7}
	if !polca.IsTransient(e) {
		t.Error("injected fault not transient")
	}
	if !polca.IsTransient(&DeadReplicaErr{Replica: 1}) {
		t.Error("dead-replica fault not transient")
	}
}

// TestFaultyProberFaultFreePassThrough: an empty plan never perturbs answers.
func TestFaultyProberFaultFreePassThrough(t *testing.T) {
	clean := polca.NewSimProber(policy.MustNew("LRU", 2))
	wrapped := WrapProber(polca.NewSimProber(policy.MustNew("LRU", 2)), NewInjector(DefaultPlan()))
	q := []blocks.Block{"A", "B", "C", "A"}
	want, err1 := clean.Probe(context.Background(), q)
	got, err2 := wrapped.Probe(context.Background(), q)
	if err1 != nil || err2 != nil || got != want {
		t.Fatalf("empty plan changed the answer: %v/%v vs %v/%v", got, err2, want, err1)
	}
}

// TestFaultyProberInjectsAndFlips: at err=1 every probe fails; at flip=1 every
// answer is inverted.
func TestFaultyProberInjectsAndFlips(t *testing.T) {
	q := []blocks.Block{"A", "B", "C", "B"}
	always := WrapProber(polca.NewSimProber(policy.MustNew("LRU", 2)),
		NewInjector(Plan{Seed: 1, ErrRate: 1, DieReplica: -1}))
	if _, err := always.Probe(context.Background(), q); !polca.IsTransient(err) {
		t.Fatalf("err=1 plan produced %v, want transient fault", err)
	}

	clean := polca.NewSimProber(policy.MustNew("LRU", 2))
	want, _ := clean.Probe(context.Background(), q)
	flipper := WrapProber(polca.NewSimProber(policy.MustNew("LRU", 2)),
		NewInjector(Plan{Seed: 1, FlipRate: 1, DieReplica: -1}))
	got, err := flipper.Probe(context.Background(), q)
	if err != nil || got != !want {
		t.Fatalf("flip=1 plan answered %v (err %v), want %v", got, err, !want)
	}
}

// TestFaultyProberStallHonorsContext: a canceled context interrupts an
// injected stall instead of sleeping through it.
func TestFaultyProberStallHonorsContext(t *testing.T) {
	stalling := WrapProber(polca.NewSimProber(policy.MustNew("LRU", 2)),
		NewInjector(Plan{Seed: 1, StallRate: 1, StallFor: time.Hour, DieReplica: -1}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := stalling.Probe(ctx, []blocks.Block{"A"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stall under canceled context returned %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not interrupt the stall")
	}
}

func TestDyingReplica(t *testing.T) {
	wrap := ReplicaWrapper(Plan{Seed: 1, DieReplica: 1, DieAfter: 3})
	if wrap == nil {
		t.Fatal("ReplicaWrapper returned nil for a killing plan")
	}
	if ReplicaWrapper(DefaultPlan()) != nil {
		t.Error("ReplicaWrapper not nil for a plan that kills nobody")
	}

	// Replica 0 is untouched.
	p0 := wrap(0, polca.NewSimProber(policy.MustNew("LRU", 2)))
	for i := 0; i < 10; i++ {
		if _, err := p0.Probe(context.Background(), []blocks.Block{"A"}); err != nil {
			t.Fatalf("surviving replica failed: %v", err)
		}
	}

	// Replica 1 answers DieAfter probes, then fails forever with a transient
	// (thus quarantinable) error.
	p1 := wrap(1, polca.NewSimProber(policy.MustNew("LRU", 2)))
	for i := 0; i < 3; i++ {
		if _, err := p1.Probe(context.Background(), []blocks.Block{"A"}); err != nil {
			t.Fatalf("probe %d before death failed: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		_, err := p1.Probe(context.Background(), []blocks.Block{"A"})
		var dead *DeadReplicaErr
		if !errors.As(err, &dead) || dead.Replica != 1 {
			t.Fatalf("dead replica answered: %v", err)
		}
		if !polca.IsTransient(err) {
			t.Fatal("replica death not transient; pool cannot retry elsewhere")
		}
	}
}
