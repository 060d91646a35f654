package cachequery

import (
	"context"
	"errors"
	"runtime"
	"slices"
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
	if err := s.enter(ctx, q); err != nil {
		return cache.Miss, err
	}
	return fakeAnswer(q), nil
}

func (s *fakeSlot) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	if err := s.enter(ctx, q); err != nil {
		return nil, err
	}
	return fakeTrace(q, k), nil
}

// enter counts one call in flight and applies the slot's gate, delay and
// fault to it.
func (s *fakeSlot) enter(ctx context.Context, q []blocks.Block) error {
	s.calls.Add(1)
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.delay != nil {
		time.Sleep(s.delay(q))
	}
	if s.fail != nil {
		return s.fail(q)
	}
	return nil
}

func fakeAnswer(q []blocks.Block) cache.Outcome {
	id, _ := blocks.Index(q[len(q)-1])
	return cache.Outcome(id%2 == 0)
}

// fakeTrace is fakeAnswer for each of the last k accesses of q.
func fakeTrace(q []blocks.Block, k int) []cache.Outcome {
	out := make([]cache.Outcome, k)
	for i := range out {
		out[i] = fakeAnswer(q[:len(q)-k+i+1])
	}
	return out
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

// TestProbeTraceQuarantineReexecutes: a slot that starts failing
// transiently is quarantined and the run it failed re-executes on another
// slot, so every trace still answers correctly. Each trace runs on one
// slot: the slots see one call per trace plus the one re-execution.
func TestProbeTraceQuarantineReexecutes(t *testing.T) {
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
	const traces = 24
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < traces; i += 2 {
				q := []blocks.Block{"A", blocks.Name(i), blocks.Name(i + 1), blocks.Name(i + 2)}
				tr, err := pool.ProbeTrace(context.Background(), q, 3)
				if err != nil {
					t.Errorf("quarantine mid-run surfaced an error: %v", err)
					return
				}
				if want := fakeTrace(q, 3); !slices.Equal(tr, want) {
					t.Errorf("trace %d = %v, want %v", i, tr, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if pool.Quarantined() != 1 || pool.Live() != 1 {
		t.Errorf("%d quarantined, %d live; want slot 0 quarantined", pool.Quarantined(), pool.Live())
	}
	if got := slots[0].calls.Load() + slots[1].calls.Load(); got != traces+1 {
		t.Errorf("%d slot calls for %d traces, want %d", got, traces, traces+1)
	}
}

// TestProbeTraceCancelReturnsPromptly: cancelling the context of traces
// blocked on a busy pool returns the context error at once, both to the
// trace holding the slot and to the one waiting for it, and leaves no
// goroutine behind.
func TestProbeTraceCancelReturnsPromptly(t *testing.T) {
	gate := make(chan struct{}) // never opened: traces block until cancel
	pool, slots := fakePool(t, 1, func(_ int, s *fakeSlot) { s.gate = gate })
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := pool.ProbeTrace(ctx, fakeBatch(4)[3], 2)
			done <- err
		}()
	}
	waitFor(t, "the slot busy", func() bool { return slots[0].inflight.Load() == 1 })
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled trace returned %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancelled trace did not return")
		}
	}
	waitFor(t, "trace goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
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
