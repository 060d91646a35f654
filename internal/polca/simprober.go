package polca

import (
	"context"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// SimProber adapts a software-simulated cache set (internal/cache) to the
// Prober interface used for the §6 case study: every probe replays the query
// from the set's idealized reset state.
//
// By default the policy is compiled into a dense transition table
// (policy.Compile), and an oracle over the prober answers through its
// query engine (engine.go), which steps the table directly and keeps one
// int32 table state per recorded node; Probe then serves only the
// determinism audit. Policies the kernel cannot compile (state spaces over
// policy.DefaultCompileStates, or contract violations like policy.Random)
// keep the interpreted cache set, and their oracle answers through the
// reset-rooted probe path (probe.go), as it does for hardware. Learned
// machines, learner trajectories and snapshots are bit-identical either
// way; only the oracle's cost counters differ. NewInterpretedSimProber
// forces the interpreted path for tests and the kernel ablation benchmark.
//
// A SimProber is not safe for concurrent use: its probes share one
// scratch state. An oracle over it answers one word at a time.
type SimProber struct {
	set *cache.Set    // interpreted path (nil when the compiled kernel is active)
	tab *policy.Table // compiled kernel
	cc0 []blocks.Block
	n   int

	// The compiled Probe path's scratch run: table state and content.
	state   int32
	content []blocks.Block
}

// NewSimProber wraps a fresh cache set governed by pol, compiled onto the
// policy kernel when pol is compilable.
func NewSimProber(pol policy.Policy) *SimProber {
	if t, ok := policy.CompileOrSelf(pol).(*policy.Table); ok {
		n := t.Assoc()
		return &SimProber{tab: t, cc0: blocks.Ordered(n), n: n, content: make([]blocks.Block, n)}
	}
	return NewInterpretedSimProber(pol)
}

// NewInterpretedSimProber wraps a fresh cache set driven through the
// interpreted Policy interface, bypassing the compiled kernel: its oracle
// takes the reset-rooted probe path.
func NewInterpretedSimProber(pol policy.Policy) *SimProber {
	return &SimProber{set: cache.NewSet(pol), cc0: blocks.Ordered(pol.Assoc()), n: pol.Assoc()}
}

// Compiled reports whether the prober runs on the compiled policy kernel.
func (p *SimProber) Compiled() bool { return p.tab != nil }

// Assoc implements Prober.
func (p *SimProber) Assoc() int { return p.n }

// InitialContent implements Prober: the reset fills lines 0..n-1 with the
// first n blocks.
func (p *SimProber) InitialContent() []blocks.Block {
	return blocks.Ordered(p.n)
}

// Probe implements Prober.
func (p *SimProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return cache.Miss, err
	}
	return p.run(q, nil), nil
}

// ProbeTrace implements Prober: the outcomes of the last k accesses of one
// reset-rooted run.
func (p *SimProber) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	if err := CheckSuffix(q, k); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]cache.Outcome, k)
	p.run(q, out)
	return out, nil
}

// run replays q from the reset state, writes the outcomes of its last
// len(out) accesses to out, and returns the last outcome.
func (p *SimProber) run(q []blocks.Block, out []cache.Outcome) cache.Outcome {
	if p.tab != nil {
		p.state = p.tab.InitState()
		copy(p.content, p.cc0)
	} else {
		p.set.Reset()
	}
	skip := len(q) - len(out)
	var last cache.Outcome
	for i, b := range q {
		if p.tab != nil {
			last = p.access(b)
		} else {
			last, _ = p.set.Access(b)
		}
		if i >= skip {
			out[i-skip] = last
		}
	}
	return last
}

// access feeds b to the compiled scratch run: a content scan plus one
// table lookup. Runs are reset-rooted, so the set is always full and the
// semantics is exactly Definition 2.3.
func (p *SimProber) access(b blocks.Block) cache.Outcome {
	if b == "" {
		panic("cache: access to empty block name")
	}
	for i, c := range p.content {
		if c == b {
			p.state, _ = p.tab.Step(p.state, i)
			return cache.Hit
		}
	}
	next, v := p.tab.Step(p.state, p.n)
	p.state = next
	p.content[v] = b
	return cache.Miss
}

// SlowProber wraps a Prober and hides every extension, forcing the oracle
// onto the reset-rooted probe path even over a compiled SimProber. Tests
// use it to check the probe path against the simulator engine.
type SlowProber struct{ P Prober }

// Assoc implements Prober.
func (p SlowProber) Assoc() int { return p.P.Assoc() }

// InitialContent implements Prober.
func (p SlowProber) InitialContent() []blocks.Block { return p.P.InitialContent() }

// Probe implements Prober.
func (p SlowProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	return p.P.Probe(ctx, q)
}

// ProbeTrace implements Prober.
func (p SlowProber) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	return p.P.ProbeTrace(ctx, q, k)
}
