package policy

import "fmt"

// MaxRRPV is the saturation value of the 2-bit re-reference prediction
// values used by the RRIP family (M = 2 in [21]), which is also what the
// paper's simulated SRRIP variants use ("4 ages").
const MaxRRPV = 3

// rrpvBits is the packed width of one RRPV or New1/New2 age (StatePacker).
const rrpvBits = 2

// rripState is the shared control state of the RRIP family: one re-reference
// prediction value (RRPV, or "age") per line. Lines with RRPV 3 are
// predicted to be re-referenced in the distant future and are victims.
type rripState struct {
	n    int
	rrpv []int
}

func newRRIPState(n int) rripState {
	s := rripState{n: n, rrpv: make([]int, n)}
	s.reset()
	return s
}

// reset restores the power-on state: all lines predicted distant (RRPV 3).
// This matches the paper's simulated SRRIP caches — the reachable state
// counts of Table 2 (12/178 for HP, 16/256 for FP at associativities 2/4)
// are reproduced exactly from this initial state, and not from a post-fill
// state.
func (s *rripState) reset() {
	for i := range s.rrpv {
		s.rrpv[i] = MaxRRPV
	}
}

// victim ages all lines until one reaches MaxRRPV and returns the leftmost
// such line. This is the eviction + normalization step of [21].
func (s *rripState) victim() int {
	for {
		for i, a := range s.rrpv {
			if a == MaxRRPV {
				return i
			}
		}
		for i := range s.rrpv {
			s.rrpv[i]++
		}
	}
}

func (s *rripState) clone() rripState {
	c := rripState{n: s.n, rrpv: make([]int, s.n)}
	copy(c.rrpv, s.rrpv)
	return c
}

// SRRIP is Static Re-reference Interval Prediction [21] with 2-bit RRPVs.
// The two hit-promotion variants from the paper are supported: HP (hit
// priority) resets a hit line's RRPV to 0, FP (frequency priority)
// decrements it. Insertions use RRPV 2 (long re-reference interval).
type SRRIP struct {
	s  rripState
	fp bool // frequency-priority hit promotion when true
}

// NewSRRIPHP returns the hit-priority variant.
func NewSRRIPHP(assoc int) *SRRIP { return &SRRIP{s: newRRIPState(assoc)} }

// NewSRRIPFP returns the frequency-priority variant.
func NewSRRIPFP(assoc int) *SRRIP { return &SRRIP{s: newRRIPState(assoc), fp: true} }

func init() {
	Register("SRRIP-HP", func(assoc int) (Policy, error) { return NewSRRIPHP(assoc), nil })
	Register("SRRIP-FP", func(assoc int) (Policy, error) { return NewSRRIPFP(assoc), nil })
}

// Name implements Policy.
func (p *SRRIP) Name() string {
	if p.fp {
		return "SRRIP-FP"
	}
	return "SRRIP-HP"
}

// Assoc implements Policy.
func (p *SRRIP) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *SRRIP) OnHit(line int) {
	checkLine(p.s.n, line)
	if p.fp {
		if p.s.rrpv[line] > 0 {
			p.s.rrpv[line]--
		}
	} else {
		p.s.rrpv[line] = 0
	}
}

// OnMiss implements Policy.
func (p *SRRIP) OnMiss() int {
	v := p.s.victim()
	p.s.rrpv[v] = MaxRRPV - 1
	return v
}

// Reset implements Policy.
func (p *SRRIP) Reset() { p.s.reset() }

// StateKey implements Policy.
func (p *SRRIP) StateKey() string { return AgesKey(p.s.rrpv) }

// PackState implements StatePacker: 2 bits per RRPV.
func (p *SRRIP) PackState() (uint64, bool) { return PackAges(p.s.rrpv, rrpvBits) }

// UnpackState implements StatePacker.
func (p *SRRIP) UnpackState(k uint64) { UnpackAges(p.s.rrpv, k, rrpvBits) }

// Clone implements Policy.
func (p *SRRIP) Clone() Policy { return &SRRIP{s: p.s.clone(), fp: p.fp} }

// DefaultBRRIPEpsilon is BRRIP's bimodal throttle: one in every 32
// insertions uses the long (RRPV 2) interval, the rest the distant (RRPV 3)
// interval, as in [21].
const DefaultBRRIPEpsilon = 32

// BRRIP is Bimodal RRIP [21], the thrash-resistant dueling partner of SRRIP
// in DRRIP. Insertions normally use the distant RRPV 3 so that streaming
// blocks are evicted immediately; every epsilon-th insertion uses RRPV 2.
// As with BIP, the original random throttle is made deterministic with a
// modulo counter that is part of the control state.
type BRRIP struct {
	s       rripState
	epsilon int
	ctr     int
}

// NewBRRIP returns a BRRIP policy with hit-priority promotion.
func NewBRRIP(assoc, epsilon int) (*BRRIP, error) {
	if epsilon < 1 {
		return nil, fmt.Errorf("policy: BRRIP epsilon must be >= 1, got %d", epsilon)
	}
	return &BRRIP{s: newRRIPState(assoc), epsilon: epsilon}, nil
}

func init() {
	Register("BRRIP", func(assoc int) (Policy, error) { return NewBRRIP(assoc, DefaultBRRIPEpsilon) })
}

// Name implements Policy.
func (p *BRRIP) Name() string { return "BRRIP" }

// Assoc implements Policy.
func (p *BRRIP) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *BRRIP) OnHit(line int) {
	checkLine(p.s.n, line)
	p.s.rrpv[line] = 0
}

// OnMiss implements Policy.
func (p *BRRIP) OnMiss() int {
	v := p.s.victim()
	if p.ctr == 0 {
		p.s.rrpv[v] = MaxRRPV - 1
	} else {
		p.s.rrpv[v] = MaxRRPV
	}
	p.ctr = (p.ctr + 1) % p.epsilon
	return v
}

// Reset implements Policy.
func (p *BRRIP) Reset() { p.s.reset(); p.ctr = 0 }

// StateKey implements Policy.
func (p *BRRIP) StateKey() string { return countedKey(p.s.rrpv, p.ctr) }

// PackState implements StatePacker: 2 bits per RRPV, the throttle counter
// above them.
func (p *BRRIP) PackState() (uint64, bool) {
	return packCounted(p.s.rrpv, rrpvBits, p.ctr, p.epsilon)
}

// UnpackState implements StatePacker.
func (p *BRRIP) UnpackState(k uint64) { p.ctr = unpackCounted(p.s.rrpv, rrpvBits, k) }

// Clone implements Policy.
func (p *BRRIP) Clone() Policy {
	return &BRRIP{s: p.s.clone(), epsilon: p.epsilon, ctr: p.ctr}
}
