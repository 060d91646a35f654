package cachequery

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/mbl"
	"repro/internal/polca"
)

func TestBackendRunRejectsNonPositiveReps(t *testing.T) {
	cpu := hw.NewCPU(tinyCPU(), 7)
	be, err := NewBackend(cpu, Target{Level: hw.L1, Set: 3}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := mbl.Expand("@ A?", be.Assoc())
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	for _, reps := range []int{0, -1, -100} {
		if _, err := be.Run(context.Background(), q, reps, true); err == nil {
			t.Errorf("reps=%d accepted", reps)
		} else if !strings.Contains(err.Error(), "repetition count") {
			t.Errorf("reps=%d: unhelpful error %q", reps, err)
		}
	}
}

func TestInconclusiveErrorShape(t *testing.T) {
	e := &InconclusiveError{Index: 2, Hits: 3, Reps: 6, Margin: 0}
	if !errors.Is(e, ErrInconclusive) {
		t.Error("InconclusiveError does not unwrap to ErrInconclusive")
	}
	msg := e.Error()
	for _, want := range []string{"2", "3", "6"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q omits %s", msg, want)
		}
	}
}

// TestBackendRunSurfacesVoteTies: with an even repetition count on a noisy
// CPU, a near-threshold access eventually splits its votes exactly in half;
// Run must return a typed InconclusiveError naming the tied access rather
// than silently picking a winner. The CPU seed is fixed, so the tie is a
// deterministic replay, not a flake.
func TestBackendRunSurfacesVoteTies(t *testing.T) {
	cpu := hw.NewCPU(noisyCPU(), 123)
	opt := testOptions()
	opt.CalibrationSamples = 81
	be, err := NewBackend(cpu, Target{Level: hw.L1, Set: 6}, opt)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := mbl.Expand("@ B? X? C?", be.Assoc())
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	for i := 0; i < 400; i++ {
		_, err := be.Run(context.Background(), q, 2, true)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrInconclusive) {
			t.Fatalf("run %d: unexpected error type: %v", i, err)
		}
		var tie *InconclusiveError
		if !errors.As(err, &tie) {
			t.Fatalf("tie not typed: %v", err)
		}
		if tie.Reps != 2 || tie.Hits*2 != tie.Reps || tie.Margin != 0 {
			t.Fatalf("tie fields inconsistent: %+v", tie)
		}
		return
	}
	t.Fatal("400 even-reps runs on a noisy CPU never tied; the tie path is untested")
}

// TestFrontendEscalatesVoteTies: the frontend absorbs backend vote ties by
// re-running with an escalated odd repetition count; the escalations are
// visible in FrontendStats.Inconclusive. Escalation fires only on exact
// ties — both repetitions misclassifying the same way is a wrong majority,
// not a tie — so with a deliberately even, deliberately tiny repetition
// count the answers are only near-correct; the bound below is a fixed-seed
// regression value, not a soundness claim.
func TestFrontendEscalatesVoteTies(t *testing.T) {
	cpu := hw.NewCPU(noisyCPU(), 123)
	opt := testOptions()
	opt.Reps = 2 // even on purpose: ties are possible until escalation
	opt.CalibrationSamples = 81
	f := NewFrontend(cpu, opt)
	f.SetResultCache(false)
	tgt := Target{Level: hw.L1, Set: 6}
	want := []cache.Outcome{cache.Hit, cache.Miss, cache.Hit}
	wrong := 0
	for i := 0; i < 200; i++ {
		res, err := f.Query(context.Background(), tgt, "@ B? X? C?")
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		for j, oc := range res[0].Outcomes {
			if oc != want[j] {
				wrong++
			}
		}
	}
	if wrong > 3 {
		t.Errorf("%d misclassifications of 600; 2-rep voting with escalation should stay near-correct", wrong)
	}
	if f.Stats().Inconclusive == 0 {
		t.Error("no vote tie escalations recorded; the escalation path never ran")
	}
}

// transientErr is a minimal retryable fault for quarantine tests.
type transientErr struct{}

func (transientErr) Error() string   { return "transient test fault" }
func (transientErr) Transient() bool { return true }

// flakyProber wraps a replica's prober and fails its first budget probes
// with a transient error (failEvery=0), or fails every probe forever
// (budget<0), or fails non-transiently (hard).
type flakyProber struct {
	inner polca.Prober
	fail  func() error // nil result = execute normally
}

func (fp *flakyProber) Assoc() int                     { return fp.inner.Assoc() }
func (fp *flakyProber) InitialContent() []blocks.Block { return fp.inner.InitialContent() }
func (fp *flakyProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if err := fp.fail(); err != nil {
		return cache.Miss, err
	}
	return fp.inner.Probe(ctx, q)
}

func poolForTest(t *testing.T, n int, opts ...PoolOption) *ParallelProber {
	t.Helper()
	fronts, err := NewReplicaFrontends(func() *hw.CPU { return hw.NewCPU(tinyCPU(), 9) },
		testOptions(), Target{Level: hw.L1, Set: 3}, n)
	if err != nil {
		t.Fatal(err)
	}
	be, err := fronts[0].Backend(Target{Level: hw.L1, Set: 3})
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewParallelProber(fronts, Target{Level: hw.L1, Set: 3},
		FlushRefill(be.Assoc()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestPoolQuarantinesDeadReplica: a replica that fails transiently on every
// probe is quarantined after threshold consecutive failures, the probe that
// noticed re-executes elsewhere transparently, and the shrunken pool keeps
// answering correctly. The probation cooldown is pushed out of the test's
// window so the quarantine counters stay exact.
func TestPoolQuarantinesDeadReplica(t *testing.T) {
	pp := poolForTest(t, 3, WithProbationCooldown(time.Hour), WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
		if i != 1 {
			return p
		}
		return &flakyProber{inner: p, fail: func() error { return transientErr{} }}
	}))
	if pp.Replicas() != 3 || pp.Live() != 3 {
		t.Fatalf("pool built wrongly: %d replicas, %d live", pp.Replicas(), pp.Live())
	}

	// Ground truth from a clean serial prober over an identical CPU.
	ref := poolForTest(t, 1)
	q := []blocks.Block{"A", "B", "C", "D", "A"}
	want, err := ref.Probe(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	// Enough probes to cycle the dying replica to its threshold. Each
	// transient failure below the threshold propagates (the oracle would
	// retry); the failure that crosses it re-probes transparently.
	failures := 0
	for i := 0; i < 50; i++ {
		oc, err := pp.Probe(context.Background(), q)
		if err != nil {
			if !polca.IsTransient(err) {
				t.Fatalf("probe %d: non-transient %v", i, err)
			}
			failures++
			continue
		}
		if oc != want {
			t.Fatalf("probe %d answered %v, want %v", i, oc, want)
		}
	}
	if pp.Quarantined() != 1 || pp.Live() != 2 {
		t.Errorf("dying replica not quarantined: %d quarantined, %d live", pp.Quarantined(), pp.Live())
	}
	// After quarantine the pool must be clean: no replica left to fail.
	for i := 0; i < 10; i++ {
		if _, err := pp.Probe(context.Background(), q); err != nil {
			t.Fatalf("post-quarantine probe failed: %v", err)
		}
	}
}

// TestPoolAllReplicasQuarantined: with probation disabled, quarantine is
// permanent, and when the last live replica is quarantined the pool fails
// probes with a terminal error instead of deadlocking on an empty pool.
// (With probation on, a fully-quarantined pool instead fails transiently
// and keeps re-trying re-admitted slots — see the probation tests.)
func TestPoolAllReplicasQuarantined(t *testing.T) {
	pp := poolForTest(t, 2, WithProbationCooldown(0), WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
		return &flakyProber{inner: p, fail: func() error { return transientErr{} }}
	}))
	q := []blocks.Block{"A", "B"}
	var lastErr error
	for i := 0; i < 20 && pp.Live() > 0; i++ {
		_, lastErr = pp.Probe(context.Background(), q)
	}
	if pp.Live() != 0 || pp.Quarantined() != 2 {
		t.Fatalf("pool not fully quarantined: %d live, %d quarantined", pp.Live(), pp.Quarantined())
	}
	_, lastErr = pp.Probe(context.Background(), q)
	if lastErr == nil || !strings.Contains(lastErr.Error(), "quarantined") {
		t.Errorf("dead pool answered: %v", lastErr)
	}
}

// TestPoolNonTransientPropagates: a non-transient error indicts the run,
// not the replica — it propagates immediately and quarantines nothing.
func TestPoolNonTransientPropagates(t *testing.T) {
	hard := errors.New("protocol violation")
	pp := poolForTest(t, 2, WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
		if i != 0 {
			return p
		}
		return &flakyProber{inner: p, fail: func() error { return hard }}
	}))
	q := []blocks.Block{"A", "B"}
	sawHard := false
	for i := 0; i < 20; i++ {
		if _, err := pp.Probe(context.Background(), q); errors.Is(err, hard) {
			sawHard = true
		}
	}
	if !sawHard {
		t.Error("hard failure never propagated")
	}
	if pp.Quarantined() != 0 {
		t.Errorf("non-transient failure quarantined %d replicas", pp.Quarantined())
	}
}

// TestPoolProbationReadmitsRecoveredReplica: quarantine is probation, not a
// death sentence. A replica that dies (every probe fails transiently) is
// quarantined; while it is still dead, each probation re-admission costs
// exactly one invisible probe — re-quarantined on its first strike, never
// surfacing an error while other replicas are live. Once the replica
// recovers, the next probation pass re-admits it for good and it serves
// traffic again.
func TestPoolProbationReadmitsRecoveredReplica(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var served atomic.Int32
	pp := poolForTest(t, 2,
		WithProbationCooldown(5*time.Millisecond),
		WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
			if i != 1 {
				return p
			}
			return &flakyProber{inner: p, fail: func() error {
				if failing.Load() {
					return transientErr{}
				}
				served.Add(1)
				return nil
			}}
		}))
	t.Cleanup(pp.Close)
	q := []blocks.Block{"A", "B", "C", "A"}

	// Drive the dying replica to its first quarantine. Below-threshold
	// transient failures propagate (the oracle would retry), so tolerate
	// them here.
	for i := 0; pp.Quarantined() == 0; i++ {
		if i > 200 {
			t.Fatal("dying replica never quarantined")
		}
		if _, err := pp.Probe(context.Background(), q); err != nil && !polca.IsTransient(err) {
			t.Fatalf("probe %d: non-transient %v", i, err)
		}
	}

	// While the replica stays dead, probation re-admissions must be
	// invisible: the one-strike probation probe re-quarantines without
	// surfacing an error (the live replica re-executes it).
	deadline := time.Now().Add(2 * time.Second)
	for pp.Readmitted() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("probation never re-admitted the dead replica: %d readmissions", pp.Readmitted())
		}
		if _, err := pp.Probe(context.Background(), q); err != nil {
			t.Fatalf("probation strike leaked to the caller: %v", err)
		}
	}
	if pp.Quarantined() < 2 {
		t.Fatalf("still-dead replica not re-quarantined: %d quarantines, %d readmissions",
			pp.Quarantined(), pp.Readmitted())
	}

	// The replica recovers (a restarted worker, a healed partition): the
	// next probation pass re-admits it and it serves traffic again.
	failing.Store(false)
	for served.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered replica never served traffic: %d live, %d readmissions",
				pp.Live(), pp.Readmitted())
		}
		if _, err := pp.Probe(context.Background(), q); err != nil {
			t.Fatalf("probe after recovery failed: %v", err)
		}
	}
	if pp.Live() != 2 {
		t.Errorf("recovered replica not live: %d live", pp.Live())
	}
	// Every quarantine ended in a re-admission: the recovered replica is
	// back for good, not parked on a pending probation timer.
	if q, r := pp.Quarantined(), pp.Readmitted(); q != r {
		t.Errorf("%d quarantines but %d readmissions after recovery", q, r)
	}
}

// TestPoolCloseStopsProbation: Close cancels pending probation timers, so a
// quarantined slot stays out and the pool drains to the terminal error once
// the last live slot goes.
func TestPoolCloseStopsProbation(t *testing.T) {
	pp := poolForTest(t, 2,
		WithProbationCooldown(time.Minute),
		WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
			return &flakyProber{inner: p, fail: func() error { return transientErr{} }}
		}))
	q := []blocks.Block{"A", "B"}
	for i := 0; i < 20 && pp.Live() > 0; i++ {
		pp.Probe(context.Background(), q) //nolint:errcheck // driving to quarantine
	}
	if pp.Live() != 0 {
		t.Fatalf("pool not fully quarantined: %d live", pp.Live())
	}
	pp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := pp.Probe(ctx, q); err == nil {
		t.Error("closed, fully-quarantined pool answered a probe")
	}
	if pp.Readmitted() != 0 {
		t.Errorf("%d readmissions after Close", pp.Readmitted())
	}
}

// TestPoolDarkWithProbationFailsTransiently: when every slot is quarantined
// while probation is still pending, probes must fail within a bounded wait
// with a transient error — never park forever on the empty pool (the
// regression: a learner driving a fully-dead remote fleet hung instead of
// aborting). Once the replicas heal, probation re-admits them and the pool
// serves again: dark is a state, not a death sentence.
func TestPoolDarkWithProbationFailsTransiently(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	pp := poolForTest(t, 2,
		WithProbationCooldown(10*time.Millisecond),
		WithReplicaWrapper(func(i int, p polca.Prober) polca.Prober {
			return &flakyProber{inner: p, fail: func() error {
				if failing.Load() {
					return transientErr{}
				}
				return nil
			}}
		}))
	t.Cleanup(pp.Close)
	q := []blocks.Block{"A", "B"}

	// Drive the whole pool dark. Below-threshold failures propagate
	// transiently on the way down; nothing may surface non-transiently.
	for i := 0; pp.Live() > 0; i++ {
		if i > 500 {
			t.Fatalf("pool never went dark: %d live", pp.Live())
		}
		if _, err := pp.Probe(context.Background(), q); err != nil && !polca.IsTransient(err) {
			t.Fatalf("probe %d: non-transient %v", i, err)
		}
	}

	// Dark pool: every probe fails — transiently, and within bounded time.
	for i := 0; i < 10; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := pp.Probe(context.Background(), q)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("probe %d: dark pool answered", i)
			}
			if !polca.IsTransient(err) {
				t.Fatalf("probe %d: dark pool failed non-transiently: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("probe %d parked on the dark pool", i)
		}
	}

	// Recovery: the replicas heal, the next probation pass re-admits them,
	// and probes succeed again.
	failing.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := pp.Probe(context.Background(), q); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed pool never recovered from dark")
		}
	}
}
