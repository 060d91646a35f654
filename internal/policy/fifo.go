package policy

import "strconv"

// FIFO evicts cache lines in round-robin insertion order. Hits do not change
// the control state, so the policy has exactly n control states: the index of
// the next victim line.
type FIFO struct {
	n    int
	next int
}

// NewFIFO returns a FIFO policy of the given associativity.
func NewFIFO(assoc int) *FIFO { return &FIFO{n: assoc} }

func init() {
	Register("FIFO", func(assoc int) (Policy, error) { return NewFIFO(assoc), nil })
}

// Name implements Policy.
func (p *FIFO) Name() string { return "FIFO" }

// Assoc implements Policy.
func (p *FIFO) Assoc() int { return p.n }

// OnHit implements Policy. FIFO ignores hits.
func (p *FIFO) OnHit(line int) { checkLine(p.n, line) }

// OnMiss implements Policy. It frees the oldest line and advances the
// insertion pointer.
func (p *FIFO) OnMiss() int {
	v := p.next
	p.next = (p.next + 1) % p.n
	return v
}

// Reset implements Policy.
func (p *FIFO) Reset() { p.next = 0 }

// StateKey implements Policy.
func (p *FIFO) StateKey() string { return "next=" + strconv.Itoa(p.next) }

// PackState implements StatePacker: the insertion pointer.
func (p *FIFO) PackState() (uint64, bool) { return uint64(p.next), true }

// UnpackState implements StatePacker.
func (p *FIFO) UnpackState(k uint64) { p.next = int(k) }

// Clone implements Policy.
func (p *FIFO) Clone() Policy { c := *p; return &c }
