package polca

import (
	"context"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// SimProber adapts a software-simulated cache set (internal/cache) to the
// Prober interface used for the §6 case study: every probe replays the query
// from the set's idealized reset state. An oracle over a SimProber answers
// through its query engine (engine.go) rather than through Probe, which
// serves the determinism audit and the reset-rooted path of wrappers such
// as SlowProber.
//
// By default the policy is compiled into a dense transition table
// (policy.Compile): the engine steps the table directly and parks a
// position as its int32 table state. Policies the kernel cannot compile
// (state spaces over the bound, or contract violations like policy.Random)
// silently keep the interpreted path, which the engine executes on forking
// sessions parked in the oracle's session slab; trajectories and learned
// machines are bit-identical either way.
// NewInterpretedSimProber forces the interpreted path for the kernel
// ablation benchmarks.
type SimProber struct {
	set *cache.Set    // interpreted path (nil when the compiled kernel is active)
	tab *policy.Table // compiled kernel
	cc0 []blocks.Block
	n   int

	scratch kernelSession // reusable probe state for the Probe/ProbeTrace paths
}

// NewSimProber wraps a fresh cache set governed by pol, compiled onto the
// policy kernel when pol is compilable.
func NewSimProber(pol policy.Policy) *SimProber {
	if t, ok := policy.CompileOrSelf(pol).(*policy.Table); ok {
		p := &SimProber{tab: t, cc0: blocks.Ordered(t.Assoc()), n: t.Assoc()}
		p.scratch = kernelSession{tab: t, content: make([]blocks.Block, t.Assoc())}
		return p
	}
	return NewInterpretedSimProber(pol)
}

// NewInterpretedSimProber wraps a fresh cache set driven through the
// interpreted Policy interface, bypassing the compiled kernel — the
// pre-kernel simulator path the ablation benchmarks compare against.
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
		p.scratch.reset(p.tab, p.cc0)
	} else {
		p.set.Reset()
	}
	skip := len(q) - len(out)
	var last cache.Outcome
	for i, b := range q {
		if p.tab != nil {
			last, _ = p.scratch.Access(b)
		} else {
			last, _ = p.set.Access(b)
		}
		if i >= skip {
			out[i-skip] = last
		}
	}
	return last
}

// NewSession returns a session at the reset state: the oracle's query
// engine executes interpreted words on these and parks their forks.
// Sessions are independent of each other and of the prober (kernel
// sessions share only the immutable table), so it is safe for concurrent
// use.
func (p *SimProber) NewSession() (Session, error) {
	if p.tab != nil {
		s := &kernelSession{tab: p.tab, state: p.tab.InitState(), content: append([]blocks.Block(nil), p.cc0...)}
		return s, nil
	}
	s := p.set.Clone()
	s.Reset()
	return &simSession{set: s}, nil
}

// kernelSession is a compiled-kernel probing session: the full cache state
// is one table state id plus the content tuple, making sessions copyable
// values — Fork copies n strings and an int32 instead of cloning policy
// objects. It serves the reset-rooted Probe path and NewSession; the
// engine steps the table without it.
type kernelSession struct {
	tab     *policy.Table
	state   int32
	content []blocks.Block
}

// reset rewinds the session to the prober's reset state, reusing the
// content storage.
func (s *kernelSession) reset(tab *policy.Table, cc0 []blocks.Block) {
	s.tab = tab
	s.state = tab.InitState()
	copy(s.content, cc0)
}

// Access implements Session: a content scan plus one table lookup. Sessions
// are reset-rooted, so the set is always full and the semantics is exactly
// Definition 2.3.
func (s *kernelSession) Access(b blocks.Block) (cache.Outcome, error) {
	if b == "" {
		panic("cache: access to empty block name")
	}
	for i, c := range s.content {
		if c == b {
			s.state, _ = s.tab.Step(s.state, i)
			return cache.Hit, nil
		}
	}
	next, v := s.tab.Step(s.state, len(s.content))
	s.state = next
	s.content[v] = b
	return cache.Miss, nil
}

// Fork implements Session: the session is a value, so forking is one small
// copy with no policy clone.
func (s *kernelSession) Fork() (Session, error) {
	return &kernelSession{tab: s.tab, state: s.state, content: append([]blocks.Block(nil), s.content...)}, nil
}

type simSession struct{ set *cache.Set }

func (s *simSession) Access(b blocks.Block) (cache.Outcome, error) {
	oc, _ := s.set.Access(b)
	return oc, nil
}

func (s *simSession) Fork() (Session, error) {
	return &simSession{set: s.set.Clone()}, nil
}

// SlowProber wraps a Prober and hides every extension, forcing the oracle
// onto the faithful reset-rooted probe path. Used by the ablation
// benchmarks that quantify the cost of the quadratic prefix replay.
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
