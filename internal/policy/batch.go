package policy

// This file implements the structure-of-arrays layer over the compiled
// policy kernel. A *Table already reduces one session's mutable state to a
// single int32; Batch packs N sessions as two contiguous matrices — a
// state vector and a dense-block-id content matrix — instead of N
// heap-allocated session structs, so a fork is one int32 plus one row
// copy.
//
// The Batch layer is deliberately mechanical: it knows the transition
// table and the content layout, but nothing about the oracle protocol
// (eviction probes, fresh-block naming, counters). Package polca drives it.

import "fmt"

// Batch is a structure-of-arrays block of N simulation sessions over one
// compiled table: a contiguous state vector plus a contiguous content
// matrix of dense block ids (row l, column i = the block resident at line
// i of lane l). There are no per-session structs; a lane is an index and
// a fork is a row copy.
type Batch struct {
	tab   *Table
	assoc int
	cc0   []int32
	state []int32 // lane -> control state id
	cont  []int32 // lane*assoc + line -> dense block id
}

// NewBatch builds a block of lanes sessions, each at the table's initial
// state with the initial content cc0 (one dense block id per line).
func NewBatch(t *Table, lanes int, cc0 []int32) *Batch {
	if len(cc0) != t.assoc {
		panic(fmt.Sprintf("policy: initial content has %d lines, associativity is %d", len(cc0), t.assoc))
	}
	b := &Batch{
		tab:   t,
		assoc: t.assoc,
		cc0:   append([]int32(nil), cc0...),
		state: make([]int32, lanes),
		cont:  make([]int32, lanes*t.assoc),
	}
	for l := 0; l < lanes; l++ {
		b.ResetLane(l)
	}
	return b
}

// State returns lane l's control state id.
func (b *Batch) State(l int) int32 { return b.state[l] }

// SetState overwrites lane l's control state id.
func (b *Batch) SetState(l int, s int32) { b.state[l] = s }

// Row returns lane l's content row (aliasing the matrix, length assoc).
func (b *Batch) Row(l int) []int32 {
	return b.cont[l*b.assoc : (l+1)*b.assoc : (l+1)*b.assoc]
}

// ResetLane rewinds lane l to the initial state and content.
func (b *Batch) ResetLane(l int) {
	b.state[l] = b.tab.InitState()
	copy(b.Row(l), b.cc0)
}

// LoadLane positions lane l at an arbitrary session state: control state s
// and content row (length assoc, copied).
func (b *Batch) LoadLane(l int, s int32, row []int32) {
	b.tab.check(s)
	if len(row) != b.assoc {
		panic(fmt.Sprintf("policy: content row has %d lines, associativity is %d", len(row), b.assoc))
	}
	b.state[l] = s
	copy(b.Row(l), row)
}

// CopyLane forks lane src into lane dst: the SoA analog of Session.Fork,
// one int32 plus one row copy.
func (b *Batch) CopyLane(dst, src int) {
	b.state[dst] = b.state[src]
	copy(b.Row(dst), b.Row(src))
}
