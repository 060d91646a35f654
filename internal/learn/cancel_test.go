package learn

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mealy"
	"repro/internal/policy"
)

// gateTeacher answers through an inner teacher until trigger queries have
// been served, then signals armed and blocks every further query on ctx —
// so a test can cancel a learn at a deterministic point in its middle and
// the learner is guaranteed to be in flight when the cancel lands. Safe for
// concurrent use (poolTeacher goroutines).
type gateTeacher struct {
	inner   Teacher
	trigger int64
	served  atomic.Int64
	armed   chan struct{}
	once    atomic.Bool
}

func newGateTeacher(inner Teacher, trigger int64) *gateTeacher {
	return &gateTeacher{inner: inner, trigger: trigger, armed: make(chan struct{})}
}

func (g *gateTeacher) NumInputs() int { return g.inner.NumInputs() }

func (g *gateTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if g.served.Add(1) > atomic.LoadInt64(&g.trigger) {
		if g.once.CompareAndSwap(false, true) {
			close(g.armed)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return g.inner.OutputQuery(ctx, word)
}

// TestCancelMidLearn: canceling the context from a concurrent goroutine
// while a learn is in flight must unwind the whole stack — both algorithms,
// with and without batched goroutines — returning context.Canceled, leaking
// no goroutines, and leaving the teacher usable for a subsequent learn.
func TestCancelMidLearn(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	algos := []struct {
		name string
		a    Algo
	}{{"lstar", AlgoLStar}, {"tree", AlgoTree}}
	teachers := []struct {
		name string
		mk   func(inner Teacher) Teacher
	}{
		{"serial", func(inner Teacher) Teacher { return inner }},
		{"pool", func(inner Teacher) Teacher { return poolTeacher{inner} }},
	}
	for _, al := range algos {
		for _, tc := range teachers {
			t.Run(al.name+"/"+tc.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				gate := newGateTeacher(MachineTeacher{M: truth}, 40)
				teacher := tc.mk(gate)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()

				go func() {
					<-gate.armed
					cancel()
				}()
				done := make(chan error, 1)
				go func() {
					_, err := Learn(ctx, teacher, Options{Depth: 1, Algo: al.a})
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("canceled learn returned %v, want context.Canceled", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("canceled learn never unwound")
				}

				// No leaked batch goroutines: the goroutine count must settle
				// back to (roughly) the pre-learn level.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before+2 {
					t.Errorf("goroutines leaked: %d before, %d after cancel", before, n)
				}

				// The teacher (and any cache inside it) must remain usable:
				// a fresh learn against the same teacher value, with the
				// gate disarmed, must converge to the exact machine.
				atomic.StoreInt64(&gate.trigger, 1<<62)
				res, err := Learn(context.Background(), teacher, Options{Depth: 1, Algo: al.a})
				if err != nil {
					t.Fatalf("learn after cancel: %v", err)
				}
				if eq, _ := res.Machine.Equivalent(truth); !eq {
					t.Error("post-cancel learn converged to a different machine")
				}
			})
		}
	}
}

// TestDeadlineExpiryMidLearn: a deadline that expires while queries are in
// flight surfaces as context.DeadlineExceeded through the same unwind path.
func TestDeadlineExpiryMidLearn(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateTeacher(MachineTeacher{M: truth}, 20)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = Learn(ctx, poolTeacher{gate}, Options{Depth: 1, Algo: AlgoTree})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired learn returned %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelBeforeLearn: an already-canceled context fails fast without
// consulting the teacher at all.
func TestCancelBeforeLearn(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("LRU", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var served atomic.Int64
	counting := teacherFunc{n: truth.NumInputs, f: func(c context.Context, w []int) ([]int, error) {
		served.Add(1)
		return MachineTeacher{M: truth}.OutputQuery(c, w)
	}}
	if _, err := Learn(ctx, counting, Options{Depth: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled learn returned %v", err)
	}
	if n := served.Load(); n != 0 {
		t.Errorf("pre-canceled learn still asked %d queries", n)
	}
}

// teacherFunc adapts a function to Teacher.
type teacherFunc struct {
	n int
	f func(context.Context, []int) ([]int, error)
}

func (t teacherFunc) NumInputs() int { return t.n }
func (t teacherFunc) OutputQuery(ctx context.Context, w []int) ([]int, error) {
	return t.f(ctx, w)
}
