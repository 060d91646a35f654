package policy

// This file implements the two previously undocumented Intel replacement
// policies that the paper learned from silicon and explained by synthesis
// (§8). Both are SRRIP-HP-like age policies over 2-bit ages; the salient
// difference from SRRIP is that the aging ("normalization") step runs after
// every hit and miss rather than only before a miss.
//
// New1 (Skylake/Kaby Lake L2, 160 states at associativity 4):
//   - Promote: set the accessed line's age to 0.
//   - Evict:   the first line from the left whose age is 3.
//   - Insert:  set the evicted line's age to 1.
//   - Normalize (after hit and miss): while no line has age 3, increase the
//     age of every line by 1 except the just accessed/evicted line.
//
// New2 (Skylake/Kaby Lake L3 leader sets, 175 states at associativity 4):
//   - Promote: if the accessed line has age 1 set it to 0, otherwise to 1.
//   - Evict:   the first line from the left whose age is 3.
//   - Insert:  set the evicted line's age to 1.
//   - Normalize (after hit and miss): while no line has age 3, increase the
//     age of every line by 1.

// newIntel is the shared machinery of New1 and New2.
type newIntel struct {
	n    int
	ages []int
}

func (s *newIntel) hasDistant() bool {
	for _, a := range s.ages {
		if a == MaxRRPV {
			return true
		}
	}
	return false
}

// normalize ages all lines (skipping the excluded line, or none if exclude
// is negative) until some line reaches age 3.
func (s *newIntel) normalize(exclude int) {
	for !s.hasDistant() {
		for i := range s.ages {
			if i != exclude {
				s.ages[i]++
			}
		}
	}
}

// evict returns the leftmost line with age 3 and re-inserts at age 1.
func (s *newIntel) evict() int {
	for i, a := range s.ages {
		if a == MaxRRPV {
			s.ages[i] = 1
			return i
		}
	}
	panic("policy: New1/New2 invariant violated: no distant line at eviction")
}

// resetByFill replays the initial fill from the power-on all-distant state.
func (s *newIntel) resetByFill(norm func(exclude int)) {
	for i := range s.ages {
		s.ages[i] = MaxRRPV
	}
	for i := 0; i < s.n; i++ {
		v := s.evict()
		norm(v)
	}
}

func (s *newIntel) cloneState() newIntel {
	c := newIntel{n: s.n, ages: make([]int, s.n)}
	copy(c.ages, s.ages)
	return c
}

// New1 is the undocumented Skylake/Kaby Lake L2 policy.
type New1 struct{ s newIntel }

// NewNew1 returns a New1 policy of the given associativity.
func NewNew1(assoc int) *New1 {
	p := &New1{s: newIntel{n: assoc, ages: make([]int, assoc)}}
	p.Reset()
	return p
}

func init() {
	Register("New1", func(assoc int) (Policy, error) { return NewNew1(assoc), nil })
}

// Name implements Policy.
func (p *New1) Name() string { return "New1" }

// Assoc implements Policy.
func (p *New1) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *New1) OnHit(line int) {
	checkLine(p.s.n, line)
	p.s.ages[line] = 0
	p.s.normalize(line)
}

// OnMiss implements Policy.
func (p *New1) OnMiss() int {
	v := p.s.evict()
	p.s.normalize(v)
	return v
}

// Reset implements Policy.
func (p *New1) Reset() { p.s.resetByFill(p.s.normalize) }

// StateKey implements Policy.
func (p *New1) StateKey() string { return AgesKey(p.s.ages) }

// PackState implements StatePacker: 2 bits per age.
func (p *New1) PackState() (uint64, bool) { return PackAges(p.s.ages, rrpvBits) }

// UnpackState implements StatePacker.
func (p *New1) UnpackState(k uint64) { UnpackAges(p.s.ages, k, rrpvBits) }

// Clone implements Policy.
func (p *New1) Clone() Policy { return &New1{s: p.s.cloneState()} }

// New2 is the undocumented Skylake/Kaby Lake L3 leader-set policy.
type New2 struct{ s newIntel }

// NewNew2 returns a New2 policy of the given associativity.
func NewNew2(assoc int) *New2 {
	p := &New2{s: newIntel{n: assoc, ages: make([]int, assoc)}}
	p.Reset()
	return p
}

func init() {
	Register("New2", func(assoc int) (Policy, error) { return NewNew2(assoc), nil })
}

// Name implements Policy.
func (p *New2) Name() string { return "New2" }

// Assoc implements Policy.
func (p *New2) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *New2) OnHit(line int) {
	checkLine(p.s.n, line)
	if p.s.ages[line] == 1 {
		p.s.ages[line] = 0
	} else {
		p.s.ages[line] = 1
	}
	p.s.normalize(-1)
}

// OnMiss implements Policy.
func (p *New2) OnMiss() int {
	v := p.s.evict()
	p.s.normalize(-1)
	return v
}

// Reset implements Policy. New2's power-on state {3,3,3,3} is itself the
// state reached by the paper's Flush+Refill reset, so reset replays the fill
// from all-distant like the other policies.
func (p *New2) Reset() {
	p.s.resetByFill(func(int) { p.s.normalize(-1) })
}

// StateKey implements Policy.
func (p *New2) StateKey() string { return AgesKey(p.s.ages) }

// PackState implements StatePacker: 2 bits per age.
func (p *New2) PackState() (uint64, bool) { return PackAges(p.s.ages, rrpvBits) }

// UnpackState implements StatePacker.
func (p *New2) UnpackState(k uint64) { UnpackAges(p.s.ages, k, rrpvBits) }

// Clone implements Policy.
func (p *New2) Clone() Policy { return &New2{s: p.s.cloneState()} }
