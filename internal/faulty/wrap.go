package faulty

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/polca"
)

// FaultyProber interposes an Injector on a polca.Prober. Fault injection
// targets the reset-rooted probe path (the one hardware uses and the one
// retry, voting, and quarantine defend): the oracle runs its simulator
// query engine only for a bare *polca.SimProber, so a wrapped simulator
// answers reset-rooted probes like hardware.
// FreshProber is forwarded when the inner prober has it, with the same
// fault roll applied. A flip fault inverts Probe's outcome, or one
// outcome of ProbeTrace's profiled suffix, drawn from the plan's seeded
// stream.
type FaultyProber struct {
	inner polca.Prober
	inj   *Injector
}

// WrapProber interposes inj on p. A nil injector or an empty plan returns a
// wrapper that never faults but still keeps the oracle off its simulator
// engine, so clean and faulty runs take the same oracle path.
func WrapProber(p polca.Prober, inj *Injector) *FaultyProber {
	return &FaultyProber{inner: p, inj: inj}
}

// Assoc implements polca.Prober.
func (fp *FaultyProber) Assoc() int { return fp.inner.Assoc() }

// InitialContent implements polca.Prober.
func (fp *FaultyProber) InitialContent() []blocks.Block { return fp.inner.InitialContent() }

// apply rolls the plan for one execution of q and stalls or fails as
// told. On d.err the inner probe must not run.
func (fp *FaultyProber) apply(ctx context.Context, q []blocks.Block) decision {
	if fp.inj == nil || fp.inj.plan.Empty() {
		return decision{}
	}
	d := fp.inj.decide(hashBlocks(q))
	if d.stall > 0 {
		t := time.NewTimer(d.stall)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			d.err = ctx.Err()
		}
	}
	return d
}

// Probe implements polca.Prober.
func (fp *FaultyProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	d := fp.apply(ctx, q)
	if d.err != nil {
		return cache.Miss, d.err
	}
	oc, err := fp.inner.Probe(ctx, q)
	if err == nil && d.flip {
		oc = !oc
	}
	return oc, err
}

// ProbeFresh implements polca.FreshProber, falling back to Probe when the
// inner prober lacks the extension.
func (fp *FaultyProber) ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	d := fp.apply(ctx, q)
	if d.err != nil {
		return cache.Miss, d.err
	}
	var oc cache.Outcome
	var err error
	if f, ok := fp.inner.(polca.FreshProber); ok {
		oc, err = f.ProbeFresh(ctx, q)
	} else {
		oc, err = fp.inner.Probe(ctx, q)
	}
	if err == nil && d.flip {
		oc = !oc
	}
	return oc, err
}

// ProbeTrace implements polca.Prober; a flip fault inverts one outcome of
// the profiled suffix.
func (fp *FaultyProber) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	d := fp.apply(ctx, q)
	if d.err != nil {
		return nil, d.err
	}
	tr, err := fp.inner.ProbeTrace(ctx, q, k)
	if err == nil && d.flip {
		i := int(d.at * float64(len(tr)))
		tr[i] = !tr[i]
	}
	return tr, err
}

var (
	_ polca.Prober      = (*FaultyProber)(nil)
	_ polca.FreshProber = (*FaultyProber)(nil)
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

func (d *dyingProber) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	if !d.alive() {
		return nil, &DeadReplicaErr{Replica: d.id}
	}
	return d.inner.ProbeTrace(ctx, q, k)
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
