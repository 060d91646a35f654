package hw

import (
	"fmt"

	"repro/internal/policy"
)

// This file contains the policy wrappers that make the simulated L3 behave
// like the adaptive last-level caches of Appendix B: follower sets duel
// between a thrash-susceptible and a thrash-resistant policy under a global
// PSEL counter, and (on Haswell) the resistant leader group uses a
// randomized insertion throttle. Both wrappers are deliberately *not*
// deterministic Mealy machines from the perspective of a single set — that
// is exactly the behaviour that prevented the paper from learning those
// sets, and Polca flags it as nondeterminism.

// duelPolicy is the follower-set policy: it maintains the metadata of both
// dueling policies and takes the eviction decision of whichever the PSEL
// counter currently favours. The cross-set PSEL state makes single-set
// behaviour observationally nondeterministic.
type duelPolicy struct {
	cpu *CPU
	a   policy.Policy // thrash-susceptible (PSEL low half)
	b   policy.Policy // thrash-resistant (PSEL high half)
}

// Name implements policy.Policy.
func (p *duelPolicy) Name() string { return "Adaptive(" + p.a.Name() + "/" + p.b.Name() + ")" }

// Assoc implements policy.Policy.
func (p *duelPolicy) Assoc() int { return p.a.Assoc() }

// OnHit implements policy.Policy.
func (p *duelPolicy) OnHit(line int) {
	p.a.OnHit(line)
	p.b.OnHit(line)
}

// OnMiss implements policy.Policy. Both metadata arrays observe the miss;
// the victim comes from the currently winning policy.
func (p *duelPolicy) OnMiss() int {
	va := p.a.OnMiss()
	vb := p.b.OnMiss()
	if p.cpu.psel < pselInit {
		return va
	}
	return vb
}

// Reset implements policy.Policy. PSEL deliberately survives: it is global
// machine state, not per-set state.
func (p *duelPolicy) Reset() {
	p.a.Reset()
	p.b.Reset()
}

// StateKey implements policy.Policy.
func (p *duelPolicy) StateKey() string {
	return fmt.Sprintf("duel[%s|%s|psel=%d]", p.a.StateKey(), p.b.StateKey(), p.cpu.psel)
}

// Clone implements policy.Policy. The clone shares the CPU (and therefore
// the live PSEL counter).
func (p *duelPolicy) Clone() policy.Policy {
	return &duelPolicy{cpu: p.cpu, a: p.a.Clone(), b: p.b.Clone()}
}

// nondetThrottle is BRRIP with the original *randomized* bimodal throttle:
// each insertion independently draws whether to use the long (RRPV 2) or
// distant (RRPV 3) re-reference interval. It reproduces Haswell's "thrash
// resistant (that seems to be not deterministic)" leader group. The draws
// come from the CPU's throttle stream, which nothing else consumes.
type nondetThrottle struct {
	cpu  *CPU
	n    int
	rrpv []int
}

func newNondetThrottle(cpu *CPU, assoc int) *nondetThrottle {
	p := &nondetThrottle{cpu: cpu, n: assoc, rrpv: make([]int, assoc)}
	p.Reset()
	return p
}

// Name implements policy.Policy.
func (p *nondetThrottle) Name() string { return "BRRIP-rand" }

// Assoc implements policy.Policy.
func (p *nondetThrottle) Assoc() int { return p.n }

// OnHit implements policy.Policy.
func (p *nondetThrottle) OnHit(line int) { p.rrpv[line] = 0 }

// OnMiss implements policy.Policy.
func (p *nondetThrottle) OnMiss() int {
	for {
		for i, a := range p.rrpv {
			if a == policy.MaxRRPV {
				if p.cpu.throttle.Intn(policy.DefaultBRRIPEpsilon) == 0 {
					p.rrpv[i] = policy.MaxRRPV - 1
				} else {
					p.rrpv[i] = policy.MaxRRPV
				}
				return i
			}
		}
		for i := range p.rrpv {
			p.rrpv[i]++
		}
	}
}

// Reset implements policy.Policy. The throttle stream belongs to the CPU
// and is deliberately not rewound, so replayed prefixes diverge.
func (p *nondetThrottle) Reset() {
	for i := range p.rrpv {
		p.rrpv[i] = policy.MaxRRPV
	}
}

// StateKey implements policy.Policy.
func (p *nondetThrottle) StateKey() string { return fmt.Sprintf("nd:%v", p.rrpv) }

// Clone implements policy.Policy.
func (p *nondetThrottle) Clone() policy.Policy {
	c := &nondetThrottle{cpu: p.cpu, n: p.n, rrpv: make([]int, p.n)}
	copy(c.rrpv, p.rrpv)
	return c
}
