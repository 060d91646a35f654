package polca_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faulty"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
)

// TestProbePathConcurrentCallers: an oracle over a prober that is not a
// ConcurrentProber — here a fault-wrapped simulator, as polcad -faults
// builds it — must never run two probes at once. Four goroutines ask
// different words on one oracle at the same time, and every answer must
// match the ground-truth machine. Run it under -race.
func TestProbePathConcurrentCallers(t *testing.T) {
	oracle, _, _, err := core.NewSimOracle("LRU", 4, core.SimOptions{Faults: &faulty.Plan{Seed: 1, DieReplica: -1}})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				w := make([]int, 1+rng.Intn(8))
				for j := range w {
					w[j] = rng.Intn(truth.NumInputs)
				}
				got, err := oracle.OutputQuery(context.Background(), w)
				if err != nil {
					errs <- err
					return
				}
				want := truth.Run(w)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("goroutine %d: word %v answered %v, truth %v", g, w, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// simPool is a ConcurrentProber test fake: a pool of interpreted
// simulators behind a channel, so concurrent probes each hold their own
// replica, as a hardware replica pool does.
type simPool struct {
	free chan *polca.SimProber
	p    *polca.SimProber // answers Assoc and InitialContent
}

func newSimPool(name string, assoc, replicas int) *simPool {
	sp := &simPool{free: make(chan *polca.SimProber, replicas)}
	for i := 0; i < replicas; i++ {
		sp.free <- polca.NewInterpretedSimProber(policy.MustNew(name, assoc))
	}
	sp.p = polca.NewInterpretedSimProber(policy.MustNew(name, assoc))
	return sp
}

func (sp *simPool) Assoc() int                     { return sp.p.Assoc() }
func (sp *simPool) InitialContent() []blocks.Block { return sp.p.InitialContent() }
func (sp *simPool) ConcurrentProbes() bool         { return true }

func (sp *simPool) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	p := <-sp.free
	defer func() { sp.free <- p }()
	return p.Probe(ctx, q)
}

func (sp *simPool) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	p := <-sp.free
	defer func() { sp.free <- p }()
	return p.ProbeTrace(ctx, q, k)
}

// TestStoreOwnerLocking: the oracle's stores are unsynchronized tries
// guarded by the oracle's own mutexes. Concurrent OutputQueryBatch calls —
// fanned out over a ConcurrentProber on the probe path, serialized by the
// engine mutex on a compiled simulator — run while other goroutines read
// StoreFootprint and write snapshots. Every answer must match the
// ground-truth machine, and a snapshot taken after the queries must
// answer every word again without a probe. Run it under -race.
func TestStoreOwnerLocking(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		p    polca.Prober
	}{
		{"probe-path", newSimPool("New1", 4, 3)},
		{"engine", polca.NewSimProber(policy.MustNew("New1", 4))},
	} {
		t.Run(leg.name, func(t *testing.T) {
			o := polca.NewOracle(leg.p, polca.WithParallelism(4))
			ctx := context.Background()
			var queriers, readers sync.WaitGroup
			done := make(chan struct{})
			errs := make(chan error, 8)
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if r == 0 {
							o.StoreFootprint()
						} else if err := o.SaveSnapshot(io.Discard, "race"); err != nil {
							errs <- err
							return
						}
					}
				}(r)
			}
			var mu sync.Mutex
			var asked [][]int
			for g := 0; g < 4; g++ {
				queriers.Add(1)
				go func(g int) {
					defer queriers.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for round := 0; round < 40; round++ {
						words := make([][]int, 1+rng.Intn(8))
						for i := range words {
							words[i] = make([]int, 1+rng.Intn(8))
							for j := range words[i] {
								words[i][j] = rng.Intn(truth.NumInputs)
							}
						}
						got, err := o.OutputQueryBatch(ctx, words)
						if err != nil {
							errs <- err
							return
						}
						for i, w := range words {
							if want := truth.Run(w); !slices.Equal(got[i], want) {
								t.Errorf("goroutine %d: word %v answered %v, truth %v", g, w, got[i], want)
								return
							}
						}
						mu.Lock()
						asked = append(asked, words...)
						mu.Unlock()
					}
				}(g)
			}
			queriers.Wait()
			close(done)
			readers.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := o.SaveSnapshot(&snap, "race"); err != nil {
				t.Fatal(err)
			}
			warm := polca.NewOracle(leg.p)
			if err := warm.LoadSnapshot(&snap, "race"); err != nil {
				t.Fatal(err)
			}
			got, err := warm.OutputQueryBatch(ctx, asked)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range asked {
				if want := truth.Run(w); !slices.Equal(got[i], want) {
					t.Fatalf("warm oracle: word %v answered %v, truth %v", w, got[i], want)
				}
			}
			if st := warm.Stats(); st.Probes != 0 {
				t.Fatalf("warm oracle sent %d probes for words its snapshot holds", st.Probes)
			}
		})
	}
}
