package polca

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
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// gatedProber answers through an inner prober until trigger probes have run,
// then signals armed and parks every further probe on ctx. It advertises
// concurrent probes (so batched oracles fan it out and park many workers at
// once) while serializing the actual inner executions behind a mutex — the
// gate must park concurrently, the simulator must not run concurrently.
type gatedProber struct {
	inner   Prober
	mu      sync.Mutex
	trigger int64
	served  atomic.Int64
	armed   chan struct{}
	once    atomic.Bool
}

func (g *gatedProber) Assoc() int                     { return g.inner.Assoc() }
func (g *gatedProber) InitialContent() []blocks.Block { return g.inner.InitialContent() }
func (g *gatedProber) ConcurrentProbes() bool         { return true }

func (g *gatedProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if g.served.Add(1) > atomic.LoadInt64(&g.trigger) {
		if g.once.CompareAndSwap(false, true) {
			close(g.armed)
		}
		<-ctx.Done()
		return cache.Miss, ctx.Err()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.Probe(ctx, q)
}

func (g *gatedProber) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	if g.served.Add(1) > atomic.LoadInt64(&g.trigger) {
		if g.once.CompareAndSwap(false, true) {
			close(g.armed)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inner.ProbeTrace(ctx, q, k)
}

// TestOracleCancelMidLearnStoresUsable: canceling a learn that is deep in
// oracle probing must unwind with context.Canceled, leave no goroutines
// behind, and leave the oracle's memo stores and parked sessions in a state
// a subsequent learn on the same oracle can build on all the way to the
// exact machine.
func TestOracleCancelMidLearnStoresUsable(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range []struct {
		name string
		a    learn.Algo
	}{{"lstar", learn.AlgoLStar}, {"tree", learn.AlgoTree}} {
		t.Run(al.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			gate := &gatedProber{
				inner:   SlowProber{P: NewSimProber(policy.MustNew("New1", 4))},
				trigger: 60,
				armed:   make(chan struct{}),
			}
			oracle := NewOracle(gate, WithParallelism(4))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-gate.armed
				cancel()
			}()
			_, err := learn.Learn(ctx, oracle, learn.Options{Depth: 1, Algo: al.a})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled learn returned %v, want context.Canceled", err)
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before+2 {
				t.Errorf("goroutines leaked: %d before, %d after cancel", before, n)
			}

			// Same oracle, gate disarmed: the partially-filled stores must
			// be consistent enough to finish the learn correctly — a store
			// corrupted by the unwind would mislearn, not just slow down.
			atomic.StoreInt64(&gate.trigger, 1<<62)
			res, err := learn.Learn(context.Background(), oracle, learn.Options{Depth: 1, Algo: al.a})
			if err != nil {
				t.Fatalf("learn after cancel: %v", err)
			}
			if eq, _ := res.Machine.Equivalent(truth); !eq {
				t.Error("post-cancel oracle mislearned the machine")
			}
		})
	}
}

// TestOracleBatchCancel: cancellation inside OutputQueryBatch unwinds every
// in-flight worker and returns the context error, not a partial answer.
func TestOracleBatchCancel(t *testing.T) {
	gate := &gatedProber{
		inner:   SlowProber{P: NewSimProber(policy.MustNew("LRU", 4))},
		trigger: 5,
		armed:   make(chan struct{}),
	}
	oracle := NewOracle(gate, WithParallelism(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-gate.armed
		cancel()
	}()
	words := make([][]int, 32)
	for i := range words {
		words[i] = []int{4, i % 5, 4, (i + 1) % 5, i % 4}
	}
	if _, err := oracle.OutputQueryBatch(ctx, words); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
}
