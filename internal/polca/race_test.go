package polca_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faulty"
	"repro/internal/mealy"
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
