package faulty

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/learn"
	"repro/internal/polca"
)

// FaultyProber interposes an Injector on a polca.Prober. It deliberately
// does NOT forward the ForkingProber extension: fault injection targets the
// reset-rooted probe path (the one hardware uses and the one retry, voting,
// and quarantine defend), and wrapping the simulator forces the oracle onto
// it instead of its simulator query engine.
// FreshProber and TraceProber are forwarded when the inner prober has them,
// with the same fault roll applied.
type FaultyProber struct {
	inner polca.Prober
	inj   *Injector
}

// WrapProber interposes inj on p. A nil injector or an empty plan returns a
// wrapper that still hides ForkingProber (so clean and faulty runs take the
// same oracle path) but never faults.
func WrapProber(p polca.Prober, inj *Injector) *FaultyProber {
	return &FaultyProber{inner: p, inj: inj}
}

// Assoc implements polca.Prober.
func (fp *FaultyProber) Assoc() int { return fp.inner.Assoc() }

// InitialContent implements polca.Prober.
func (fp *FaultyProber) InitialContent() []blocks.Block { return fp.inner.InitialContent() }

// apply rolls the plan for one execution of q and stalls or fails as told.
// It returns (flip, err); on err the inner probe must not run.
func (fp *FaultyProber) apply(ctx context.Context, q []blocks.Block) (bool, error) {
	if fp.inj == nil || fp.inj.plan.Empty() {
		return false, nil
	}
	d := fp.inj.decide(hashBlocks(q))
	if d.stall > 0 {
		t := time.NewTimer(d.stall)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false, ctx.Err()
		}
	}
	return d.flip, d.err
}

// Probe implements polca.Prober.
func (fp *FaultyProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	flip, err := fp.apply(ctx, q)
	if err != nil {
		return cache.Miss, err
	}
	oc, err := fp.inner.Probe(ctx, q)
	if err == nil && flip {
		oc = !oc
	}
	return oc, err
}

// ProbeFresh implements polca.FreshProber, falling back to Probe when the
// inner prober lacks the extension.
func (fp *FaultyProber) ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	flip, err := fp.apply(ctx, q)
	if err != nil {
		return cache.Miss, err
	}
	var oc cache.Outcome
	if f, ok := fp.inner.(polca.FreshProber); ok {
		oc, err = f.ProbeFresh(ctx, q)
	} else {
		oc, err = fp.inner.Probe(ctx, q)
	}
	if err == nil && flip {
		oc = !oc
	}
	return oc, err
}

// ProbeTrace implements polca.TraceProber when the inner prober does; a flip
// fault inverts the final outcome of the trace (the one Probe would return).
func (fp *FaultyProber) ProbeTrace(ctx context.Context, q []blocks.Block) ([]cache.Outcome, error) {
	tp, ok := fp.inner.(polca.TraceProber)
	if !ok {
		oc, err := fp.Probe(ctx, q)
		if err != nil {
			return nil, err
		}
		return []cache.Outcome{oc}, nil
	}
	flip, err := fp.apply(ctx, q)
	if err != nil {
		return nil, err
	}
	tr, err := tp.ProbeTrace(ctx, q)
	if err == nil && flip && len(tr) > 0 {
		tr[len(tr)-1] = !tr[len(tr)-1]
	}
	return tr, err
}

var (
	_ polca.Prober      = (*FaultyProber)(nil)
	_ polca.FreshProber = (*FaultyProber)(nil)
	_ polca.TraceProber = (*FaultyProber)(nil)
)

// DeadReplicaErr is the permanent fault a dead replica answers with. It is
// transient — from the pool's point of view the replica might recover — but
// a dead replica fails every probe, so its consecutive-failure score crosses
// the quarantine threshold almost immediately.
type DeadReplicaErr struct{ Replica int }

func (e *DeadReplicaErr) Error() string {
	return "faulty: replica " + itoa(e.Replica) + " is dead"
}

// Transient marks replica death retryable (on another replica).
func (e *DeadReplicaErr) Transient() bool { return true }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// ReplicaWrapper returns a cachequery.WithReplicaWrapper-compatible hook
// implementing the plan's die=replica@count clause: replica DieReplica
// answers DieAfter probes normally, then fails every subsequent probe with
// a transient DeadReplicaErr until the pool quarantines it. Other replicas
// pass through untouched (the pool-level wrapper composes with per-probe
// injection configured elsewhere). Returns nil when the plan kills nobody,
// so callers can pass the result straight to the pool option.
func ReplicaWrapper(plan Plan) func(i int, p polca.Prober) polca.Prober {
	if plan.DieReplica < 0 {
		return nil
	}
	return func(i int, p polca.Prober) polca.Prober {
		if i != plan.DieReplica {
			return p
		}
		return &dyingProber{inner: p, budget: plan.DieAfter, id: i}
	}
}

// dyingProber counts answers and dies when the budget is spent.
type dyingProber struct {
	inner  polca.Prober
	id     int
	budget int64
	served atomic.Int64
}

func (d *dyingProber) Assoc() int                     { return d.inner.Assoc() }
func (d *dyingProber) InitialContent() []blocks.Block { return d.inner.InitialContent() }

func (d *dyingProber) alive() bool {
	return d.served.Add(1) <= d.budget
}

func (d *dyingProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if !d.alive() {
		return cache.Miss, &DeadReplicaErr{Replica: d.id}
	}
	return d.inner.Probe(ctx, q)
}

func (d *dyingProber) ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if !d.alive() {
		return cache.Miss, &DeadReplicaErr{Replica: d.id}
	}
	if f, ok := d.inner.(polca.FreshProber); ok {
		return f.ProbeFresh(ctx, q)
	}
	return d.inner.Probe(ctx, q)
}

// FaultyTeacher interposes an Injector on a learn.Teacher at the
// policy-query level, for exercising the learner's error paths without a
// full oracle stack underneath.
type FaultyTeacher struct {
	inner learn.Teacher
	inj   *Injector
}

// WrapTeacher interposes inj on t.
func WrapTeacher(t learn.Teacher, inj *Injector) *FaultyTeacher {
	return &FaultyTeacher{inner: t, inj: inj}
}

// NumInputs implements learn.Teacher.
func (ft *FaultyTeacher) NumInputs() int { return ft.inner.NumInputs() }

// OutputQuery implements learn.Teacher. Policy-level outputs are not
// booleans, so a flip fault perturbs the final symbol by +1 instead of
// inverting it.
func (ft *FaultyTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	var d decision
	if ft.inj != nil && !ft.inj.plan.Empty() {
		d = ft.inj.decide(hashWord(word))
	}
	if d.stall > 0 {
		t := time.NewTimer(d.stall)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	out, err := ft.inner.OutputQuery(ctx, word)
	if err == nil && d.flip && len(out) > 0 {
		out = append([]int(nil), out...)
		out[len(out)-1]++
	}
	return out, err
}

var _ learn.Teacher = (*FaultyTeacher)(nil)
