package policy

import (
	"fmt"
	"math/bits"
	"strings"
)

// PLRU is the tree-based Pseudo-LRU policy [15]. The associativity must be a
// power of two; the control state is a complete binary tree of n-1 direction
// bits stored heap-style (node 1 is the root, node v has children 2v and
// 2v+1). Bit 0 at a node means "the next victim is in the left subtree".
// On every access the bits along the accessed line's root path are set to
// point away from it. The policy has 2^(n-1) control states.
//
// This is the policy the paper learns on the L1 caches of all three Intel
// CPUs and on Haswell's L2 (Table 4).
type PLRU struct {
	n     int
	tree  []uint8 // tree[1..n-1]; index 0 unused
	depth int
}

// NewPLRU returns a PLRU policy; assoc must be a power of two >= 2.
func NewPLRU(assoc int) (*PLRU, error) {
	if assoc < 2 || bits.OnesCount(uint(assoc)) != 1 {
		return nil, fmt.Errorf("policy: PLRU associativity must be a power of two >= 2, got %d", assoc)
	}
	p := &PLRU{n: assoc, tree: make([]uint8, assoc), depth: bits.TrailingZeros(uint(assoc))}
	p.Reset()
	return p, nil
}

func init() {
	Register("PLRU", func(assoc int) (Policy, error) { return NewPLRU(assoc) })
}

// Name implements Policy.
func (p *PLRU) Name() string { return "PLRU" }

// Assoc implements Policy.
func (p *PLRU) Assoc() int { return p.n }

// touch flips the root-path bits of line so they point away from it.
func (p *PLRU) touch(line int) {
	node := 1
	for level := p.depth - 1; level >= 0; level-- {
		dir := (line >> level) & 1 // 0: line lives in the left subtree
		p.tree[node] = uint8(1 - dir)
		node = node<<1 | dir
	}
}

// OnHit implements Policy.
func (p *PLRU) OnHit(line int) {
	checkLine(p.n, line)
	p.touch(line)
}

// OnMiss implements Policy. The victim is found by following the direction
// bits from the root; the inserted block is then touched like a hit.
func (p *PLRU) OnMiss() int {
	node := 1
	for node < p.n {
		node = node<<1 | int(p.tree[node])
	}
	victim := node - p.n
	p.touch(victim)
	return victim
}

// Reset implements Policy. The initial state is the one reached after
// filling the set with accesses to lines 0..n-1 in order, mirroring the '@'
// reset fill used by CacheQuery.
func (p *PLRU) Reset() {
	for i := range p.tree {
		p.tree[i] = 0
	}
	for i := 0; i < p.n; i++ {
		p.touch(i)
	}
}

// StateKey implements Policy.
func (p *PLRU) StateKey() string {
	var sb strings.Builder
	for _, b := range p.tree[1:] {
		sb.WriteByte('0' + b)
	}
	return sb.String()
}

// PackState implements StatePacker: the n-1 tree bits, up to
// associativity 64.
func (p *PLRU) PackState() (uint64, bool) { return packBits(p.tree[1:]) }

// UnpackState implements StatePacker.
func (p *PLRU) UnpackState(k uint64) { unpackBits(p.tree[1:], k) }

// Clone implements Policy.
func (p *PLRU) Clone() Policy {
	c := &PLRU{n: p.n, tree: make([]uint8, len(p.tree)), depth: p.depth}
	copy(c.tree, p.tree)
	return c
}

// packBits packs a vector of 0/1 bytes, element 0 in the low bit.
func packBits(bs []uint8) (uint64, bool) {
	if len(bs) > 64 {
		return 0, false
	}
	var k uint64
	for i, b := range bs {
		k |= uint64(b) << i
	}
	return k, true
}

// unpackBits is the inverse of packBits.
func unpackBits(bs []uint8, k uint64) {
	for i := range bs {
		bs[i] = uint8(k >> i & 1)
	}
}
