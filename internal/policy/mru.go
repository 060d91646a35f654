package policy

import "strings"

// MRU is the bit-PLRU / "most recently used bits" policy of Malamy et al.
// [26], as learned in the paper up to associativity 12 (Table 2). Every line
// carries one MRU bit; an access sets the line's bit. When the last zero bit
// would disappear, all other bits are cleared (the normalization step). The
// victim is the leftmost line whose bit is clear. The policy has 2^n - 2
// reachable control states (the all-zero and all-one vectors are never
// observed between accesses).
type MRU struct {
	n    int
	bits []uint8
}

// NewMRU returns an MRU policy of the given associativity.
func NewMRU(assoc int) *MRU {
	p := &MRU{n: assoc, bits: make([]uint8, assoc)}
	p.Reset()
	return p
}

func init() {
	Register("MRU", func(assoc int) (Policy, error) { return NewMRU(assoc), nil })
}

// Name implements Policy.
func (p *MRU) Name() string { return "MRU" }

// Assoc implements Policy.
func (p *MRU) Assoc() int { return p.n }

// touch sets line's MRU bit, clearing all others if the vector saturates.
func (p *MRU) touch(line int) {
	p.bits[line] = 1
	for _, b := range p.bits {
		if b == 0 {
			return
		}
	}
	for i := range p.bits {
		if i != line {
			p.bits[i] = 0
		}
	}
}

// OnHit implements Policy.
func (p *MRU) OnHit(line int) {
	checkLine(p.n, line)
	p.touch(line)
}

// OnMiss implements Policy. The leftmost line with a clear bit is freed and
// the incoming block is marked most recently used.
func (p *MRU) OnMiss() int {
	for i, b := range p.bits {
		if b == 0 {
			p.touch(i)
			return i
		}
	}
	panic("policy: MRU invariant violated: all bits set between accesses")
}

// Reset implements Policy. The initial state is the one reached after the
// initial fill touches lines 0..n-1 in order: the fill saturates the bit
// vector and normalization leaves only the last line marked.
func (p *MRU) Reset() {
	for i := range p.bits {
		p.bits[i] = 0
	}
	for i := 0; i < p.n; i++ {
		p.touch(i)
	}
}

// StateKey implements Policy.
func (p *MRU) StateKey() string {
	var sb strings.Builder
	for _, b := range p.bits {
		sb.WriteByte('0' + b)
	}
	return sb.String()
}

// PackState implements StatePacker: one bit per line, up to associativity
// 64.
func (p *MRU) PackState() (uint64, bool) { return packBits(p.bits) }

// UnpackState implements StatePacker.
func (p *MRU) UnpackState(k uint64) { unpackBits(p.bits, k) }

// Clone implements Policy.
func (p *MRU) Clone() Policy {
	c := &MRU{n: p.n, bits: make([]uint8, p.n)}
	copy(c.bits, p.bits)
	return c
}
