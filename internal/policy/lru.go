package policy

import "fmt"

// recencyStack is the shared control state of the stack-based policies LRU,
// LIP and BIP: ages[i] is the recency rank of line i, where 0 is the most
// recently used line and n-1 the least recently used one. The ages always
// form a permutation of 0..n-1.
type recencyStack struct {
	n    int
	ages []int
}

// recencyBits is the packed width of one recency rank (StatePacker): ranks
// up to 15, so the stack policies pack up to associativity 16.
const recencyBits = 4

func newRecencyStack(n int) recencyStack {
	s := recencyStack{n: n, ages: make([]int, n)}
	s.reset()
	return s
}

// reset restores the state after the initial fill A, B, ..., i.e. line 0 was
// inserted first and is the least recently used line (age n-1).
func (s *recencyStack) reset() {
	for i := range s.ages {
		s.ages[i] = s.n - 1 - i
	}
}

// promote makes line the most recently used one, aging every line that was
// more recent than it.
func (s *recencyStack) promote(line int) {
	old := s.ages[line]
	for j := range s.ages {
		if s.ages[j] < old {
			s.ages[j]++
		}
	}
	s.ages[line] = 0
}

// lruVictim returns the least recently used line.
func (s *recencyStack) lruVictim() int {
	for j, a := range s.ages {
		if a == s.n-1 {
			return j
		}
	}
	panic("policy: recency stack invariant violated")
}

func (s *recencyStack) clone() recencyStack {
	c := recencyStack{n: s.n, ages: make([]int, s.n)}
	copy(c.ages, s.ages)
	return c
}

// LRU is the Least Recently Used policy: the line whose last access is the
// furthest in the past is evicted; both hits and insertions move a line to
// the most recently used position. Its control states are the n! recency
// permutations.
type LRU struct{ s recencyStack }

// NewLRU returns an LRU policy of the given associativity.
func NewLRU(assoc int) *LRU { return &LRU{s: newRecencyStack(assoc)} }

func init() {
	Register("LRU", func(assoc int) (Policy, error) { return NewLRU(assoc), nil })
}

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// Assoc implements Policy.
func (p *LRU) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *LRU) OnHit(line int) { checkLine(p.s.n, line); p.s.promote(line) }

// OnMiss implements Policy. The LRU line is freed and the incoming block is
// inserted at the most recently used position.
func (p *LRU) OnMiss() int {
	v := p.s.lruVictim()
	p.s.promote(v)
	return v
}

// Reset implements Policy.
func (p *LRU) Reset() { p.s.reset() }

// StateKey implements Policy.
func (p *LRU) StateKey() string { return AgesKey(p.s.ages) }

// PackState implements StatePacker: 4 bits per recency rank.
func (p *LRU) PackState() (uint64, bool) { return PackAges(p.s.ages, recencyBits) }

// UnpackState implements StatePacker.
func (p *LRU) UnpackState(k uint64) { UnpackAges(p.s.ages, k, recencyBits) }

// Clone implements Policy.
func (p *LRU) Clone() Policy { return &LRU{s: p.s.clone()} }

// LIP is the LRU Insertion Policy of Qureshi et al. [31]: eviction and hit
// promotion behave like LRU, but a newly inserted block stays at the LRU
// position, so it is the next victim unless it is reused first. LIP protects
// the cache against thrashing workloads.
type LIP struct{ s recencyStack }

// NewLIP returns a LIP policy of the given associativity.
func NewLIP(assoc int) *LIP { return &LIP{s: newRecencyStack(assoc)} }

func init() {
	Register("LIP", func(assoc int) (Policy, error) { return NewLIP(assoc), nil })
}

// Name implements Policy.
func (p *LIP) Name() string { return "LIP" }

// Assoc implements Policy.
func (p *LIP) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *LIP) OnHit(line int) { checkLine(p.s.n, line); p.s.promote(line) }

// OnMiss implements Policy. The LRU line is replaced in place: the new block
// keeps age n-1.
func (p *LIP) OnMiss() int { return p.s.lruVictim() }

// Reset implements Policy.
func (p *LIP) Reset() { p.s.reset() }

// StateKey implements Policy.
func (p *LIP) StateKey() string { return AgesKey(p.s.ages) }

// PackState implements StatePacker: 4 bits per recency rank.
func (p *LIP) PackState() (uint64, bool) { return PackAges(p.s.ages, recencyBits) }

// UnpackState implements StatePacker.
func (p *LIP) UnpackState(k uint64) { UnpackAges(p.s.ages, k, recencyBits) }

// Clone implements Policy.
func (p *LIP) Clone() Policy { return &LIP{s: p.s.clone()} }

// DefaultBIPEpsilon is the bimodal throttle used by BIP when none is given:
// one in every 32 insertions goes to the MRU position, as in [31].
const DefaultBIPEpsilon = 32

// BIP is the Bimodal Insertion Policy of Qureshi et al. [31]: it behaves
// like LIP except that every epsilon-th insertion is placed at the MRU
// position instead. The original proposal throttles randomly; this
// implementation uses a deterministic modulo counter so the policy remains a
// finite deterministic Mealy machine (the counter is part of the control
// state).
type BIP struct {
	s       recencyStack
	epsilon int
	ctr     int
}

// NewBIP returns a BIP policy with the given associativity and throttle.
// epsilon must be >= 1; epsilon == 1 degenerates to LRU insertion.
func NewBIP(assoc, epsilon int) (*BIP, error) {
	if epsilon < 1 {
		return nil, fmt.Errorf("policy: BIP epsilon must be >= 1, got %d", epsilon)
	}
	return &BIP{s: newRecencyStack(assoc), epsilon: epsilon}, nil
}

func init() {
	Register("BIP", func(assoc int) (Policy, error) { return NewBIP(assoc, DefaultBIPEpsilon) })
}

// Name implements Policy.
func (p *BIP) Name() string { return "BIP" }

// Assoc implements Policy.
func (p *BIP) Assoc() int { return p.s.n }

// OnHit implements Policy.
func (p *BIP) OnHit(line int) { checkLine(p.s.n, line); p.s.promote(line) }

// OnMiss implements Policy.
func (p *BIP) OnMiss() int {
	v := p.s.lruVictim()
	if p.ctr == 0 {
		p.s.promote(v) // the rare MRU insertion
	}
	p.ctr = (p.ctr + 1) % p.epsilon
	return v
}

// Reset implements Policy.
func (p *BIP) Reset() { p.s.reset(); p.ctr = 0 }

// StateKey implements Policy.
func (p *BIP) StateKey() string { return countedKey(p.s.ages, p.ctr) }

// PackState implements StatePacker: 4 bits per recency rank, the throttle
// counter above them.
func (p *BIP) PackState() (uint64, bool) {
	return packCounted(p.s.ages, recencyBits, p.ctr, p.epsilon)
}

// UnpackState implements StatePacker.
func (p *BIP) UnpackState(k uint64) { p.ctr = unpackCounted(p.s.ages, recencyBits, k) }

// Clone implements Policy.
func (p *BIP) Clone() Policy {
	return &BIP{s: p.s.clone(), epsilon: p.epsilon, ctr: p.ctr}
}
