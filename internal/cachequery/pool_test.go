package cachequery

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/polca"
)

// fakeSlot is a CPU-free pool slot: it answers Hit when the probe's last
// block has an even universe index, and counts the probes in flight across
// every slot that shares its counters.
type fakeSlot struct {
	inflight, peak *atomic.Int32
	calls          atomic.Int32
	gate           <-chan struct{}                      // when set, each probe waits for it (or ctx)
	delay          func(q []blocks.Block) time.Duration // optional per-probe latency
	fail           func(q []blocks.Block) error         // optional fault; nil error = answer
}

func (s *fakeSlot) Assoc() int                     { return 4 }
func (s *fakeSlot) InitialContent() []blocks.Block { return blocks.Ordered(4) }

func (s *fakeSlot) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	s.calls.Add(1)
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return cache.Miss, ctx.Err()
		}
	}
	if s.delay != nil {
		time.Sleep(s.delay(q))
	}
	if s.fail != nil {
		if err := s.fail(q); err != nil {
			return cache.Miss, err
		}
	}
	return fakeAnswer(q), nil
}

func fakeAnswer(q []blocks.Block) cache.Outcome {
	id, _ := blocks.Index(q[len(q)-1])
	return cache.Outcome(id%2 == 0)
}

// fakePool pools n fake slots sharing one pair of in-flight counters; setup
// configures each slot before the pool wraps it.
func fakePool(t *testing.T, n int, setup func(i int, s *fakeSlot), opts ...PoolOption) (*ProberPool, []*fakeSlot) {
	t.Helper()
	var inflight, peak atomic.Int32
	slots := make([]*fakeSlot, n)
	probers := make([]polca.Prober, n)
	for i := range slots {
		slots[i] = &fakeSlot{inflight: &inflight, peak: &peak}
		if setup != nil {
			setup(i, slots[i])
		}
		probers[i] = slots[i]
	}
	pool, err := NewProberPool(probers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool, slots
}

// fakeBatch returns n distinct probes; probe i ends in universe block i.
func fakeBatch(n int) [][]blocks.Block {
	qs := make([][]blocks.Block, n)
	for i := range qs {
		qs[i] = []blocks.Block{"A", blocks.Name(i)}
	}
	return qs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProbeBatchBoundedInFlight: a batch never has more probes in flight
// than the pool has slots, even with several batches running at once, and
// it runs on the caller plus at most Size()-1 helper goroutines rather than
// one goroutine per probe.
func TestProbeBatchBoundedInFlight(t *testing.T) {
	gate := make(chan struct{})
	pool, slots := fakePool(t, 3, func(_ int, s *fakeSlot) { s.gate = gate })
	base := runtime.NumGoroutine()
	qs := fakeBatch(64)
	done := make(chan error, 1)
	go func() {
		_, err := pool.ProbeBatch(context.Background(), qs)
		done <- err
	}()
	waitFor(t, "every slot busy", func() bool { return slots[0].inflight.Load() == int32(pool.Size()) })
	// The batch's goroutine plus its helpers; a goroutine per probe would
	// show 64 here.
	if got := runtime.NumGoroutine() - base; got > pool.Size() {
		t.Errorf("%d goroutines behind one batch of %d probes, want at most %d", got, len(qs), pool.Size())
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.ProbeBatch(context.Background(), qs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak := slots[0].peak.Load(); peak > int32(pool.Size()) {
		t.Errorf("%d probes in flight, pool has %d slots", peak, pool.Size())
	}
}

// TestProbeBatchOrderAndFirstError: answers land by index whatever order
// the probes complete in, and a batch with several failing probes reports
// the failure with the lowest index, even when a later one fails first.
func TestProbeBatchOrderAndFirstError(t *testing.T) {
	errLow, errHigh := errors.New("probe 5 failed"), errors.New("probe 12 failed")
	var failing atomic.Bool
	pool, _ := fakePool(t, 3, func(_ int, s *fakeSlot) {
		s.delay = func(q []blocks.Block) time.Duration {
			id, _ := blocks.Index(q[len(q)-1])
			return time.Duration((id*7)%5) * 100 * time.Microsecond
		}
		s.fail = func(q []blocks.Block) error {
			if !failing.Load() {
				return nil
			}
			switch q[len(q)-1] {
			case blocks.Name(5):
				time.Sleep(20 * time.Millisecond) // fail after probe 12 does
				return errLow
			case blocks.Name(12):
				return errHigh
			}
			return nil
		}
	})
	qs := fakeBatch(20)
	out, err := pool.ProbeBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if out[i] != fakeAnswer(q) {
			t.Errorf("answer %d = %v, want %v", i, out[i], fakeAnswer(q))
		}
	}
	failing.Store(true)
	if _, err := pool.ProbeBatch(context.Background(), qs); !errors.Is(err, errLow) {
		t.Errorf("batch error %v, want the lowest-index failure %v", err, errLow)
	}
}

// TestProbeBatchQuarantineReexecutes: a slot that starts failing
// transiently mid-batch is quarantined and its probe re-executes on
// another slot, so the batch still answers every probe correctly.
func TestProbeBatchQuarantineReexecutes(t *testing.T) {
	var served atomic.Int32
	pool, slots := fakePool(t, 2, func(i int, s *fakeSlot) {
		if i == 0 {
			s.fail = func([]blocks.Block) error {
				if served.Load() >= 4 {
					return transientErr{}
				}
				return nil
			}
		}
		s.delay = func([]blocks.Block) time.Duration {
			served.Add(1)
			return 50 * time.Microsecond
		}
	}, WithQuarantineThreshold(1), WithProbationCooldown(0))
	qs := fakeBatch(24)
	out, err := pool.ProbeBatch(context.Background(), qs)
	if err != nil {
		t.Fatalf("quarantine mid-batch surfaced an error: %v", err)
	}
	for i, q := range qs {
		if out[i] != fakeAnswer(q) {
			t.Errorf("answer %d = %v, want %v", i, out[i], fakeAnswer(q))
		}
	}
	if pool.Quarantined() != 1 || pool.Live() != 1 {
		t.Errorf("%d quarantined, %d live; want slot 0 quarantined", pool.Quarantined(), pool.Live())
	}
	// Every probe reached a slot once, plus one re-execution of the probe
	// whose failure quarantined slot 0.
	if got := slots[0].calls.Load() + slots[1].calls.Load(); got != int32(len(qs))+1 {
		t.Errorf("%d slot calls for %d probes, want %d", got, len(qs), len(qs)+1)
	}
}

// TestProbeBatchCancelReturnsPromptly: cancelling the context of a batch
// blocked on its slots returns the context error at once, issues none of
// the remaining probes, and leaves no goroutine behind.
func TestProbeBatchCancelReturnsPromptly(t *testing.T) {
	gate := make(chan struct{}) // never opened: probes block until cancel
	pool, slots := fakePool(t, 3, func(_ int, s *fakeSlot) { s.gate = gate })
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.ProbeBatch(ctx, fakeBatch(32))
		done <- err
	}()
	waitFor(t, "every slot busy", func() bool { return slots[0].inflight.Load() == int32(pool.Size()) })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled batch returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
	calls := int32(0)
	for _, s := range slots {
		calls += s.calls.Load()
	}
	if calls != int32(pool.Size()) {
		t.Errorf("%d probes issued, want only the %d in flight at cancel", calls, pool.Size())
	}
	waitFor(t, "batch goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	if _, err := pool.ProbeBatch(ctx, fakeBatch(8)); !errors.Is(err, context.Canceled) {
		t.Errorf("batch on a cancelled context returned %v", err)
	}
	if calls2 := slots[0].calls.Load() + slots[1].calls.Load() + slots[2].calls.Load(); calls2 != calls {
		t.Errorf("batch on a cancelled context issued %d probes", calls2-calls)
	}
}

// TestPoolProbeVotesExecuteEveryVote: the oracle's probe votes each reach
// the CPU. Replica frontends keep no result cache, so votes 2 and 3 of a
// probe are real measurements, not replays of vote 1.
func TestPoolProbeVotesExecuteEveryVote(t *testing.T) {
	tgt := Target{Level: hw.L1, Set: 7}
	fronts, err := NewReplicaFrontends(func() *hw.CPU { return hw.NewCPU(tinyCPU(), 5) }, testOptions(), tgt, 2)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewParallelProber(fronts, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(pp, polca.WithProbeVotes(3), polca.WithParallelism(2))
	if _, err := oracle.OutputQuery(context.Background(), []int{0, 4, 1, 4, 4}); err != nil {
		t.Fatal(err)
	}
	probes, executed := oracle.Stats().Probes, pp.FrontendStats().Executed
	if probes == 0 || executed != 3*probes {
		t.Errorf("%d backend executions for %d voted probes, want %d", executed, probes, 3*probes)
	}
}

// TestRepetitionsStopAtTheMajority: on a toy CPU without latency jitter the
// first two of Reps: 3 repetitions always agree, so every backend execution
// runs exactly 2 — through a frontend, and summed over a replica pool's
// frontends by FrontendStats.Add.
func TestRepetitionsStopAtTheMajority(t *testing.T) {
	noiseless := func() *hw.CPU {
		cfg := tinyCPU()
		cfg.L1.LatencySigma, cfg.L2.LatencySigma, cfg.L3.LatencySigma, cfg.MemSigma = 0, 0, 0, 0
		return hw.NewCPU(cfg, 5)
	}
	tgt := Target{Level: hw.L1, Set: 7}
	f := NewFrontend(noiseless(), testOptions())
	f.SetResultCache(false)
	if _, err := f.Query(context.Background(), tgt, "@ M _?"); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed == 0 || s.Repetitions != 2*s.Executed {
		t.Errorf("frontend: %d repetitions for %d executions, want 2 each", s.Repetitions, s.Executed)
	}

	fronts, err := NewReplicaFrontends(noiseless, testOptions(), tgt, 2)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewParallelProber(fronts, tgt, FlushRefill(4))
	if err != nil {
		t.Fatal(err)
	}
	oracle := polca.NewOracle(pp, polca.WithParallelism(2))
	if _, err := oracle.OutputQuery(context.Background(), []int{0, 4, 1, 4, 2, 4, 3}); err != nil {
		t.Fatal(err)
	}
	if s := pp.FrontendStats(); s.Executed == 0 || s.Repetitions != 2*s.Executed {
		t.Errorf("pool: %d repetitions for %d executions, want 2 each", s.Repetitions, s.Executed)
	}
}
