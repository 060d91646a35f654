package policy

// This file implements the batched structure-of-arrays layer over the
// compiled policy kernel. A *Table already reduces one session's mutable
// state to a single int32; StepBatch advances a whole vector of such states
// by one input symbol in a single pass over the shared transition arrays,
// and Batch packs N concurrent sessions as two contiguous matrices — a
// state vector and a dense-block-id content matrix — instead of N
// heap-allocated session structs. One cache line of the state vector holds
// sixteen sessions, so a lockstep pass touches memory linearly where heap
// sessions chase a pointer per fork.
//
// The Batch layer is deliberately mechanical: it knows the transition
// table and the content layout, but nothing about the oracle protocol
// (eviction probes, fresh-block naming, counters). Package polca drives it.

import "fmt"

// StepBatch advances every state in states by the same input symbol, in
// place: states[i] becomes the successor of states[i] under sym. It is the
// lockstep analog of Step for the common case where a whole lane group
// consumes one symbol (an Evct sweep, a shared-prefix replay). The symbol
// is validated once; states must hold valid ids for this table.
func (t *Table) StepBatch(states []int32, sym int32) {
	if sym < 0 || int(sym) >= t.numIn {
		panic(fmt.Sprintf("policy: input %d out of range for associativity %d", sym, t.assoc))
	}
	next := t.next
	numIn := t.numIn
	s := int(sym)
	for i, st := range states {
		states[i] = next[int(st)*numIn+s]
	}
}

// StepBatchOut is StepBatch that also writes each lane's policy output
// (Bottom for a hit symbol, the victim line for Evct) into outs, which
// must be at least as long as states.
func (t *Table) StepBatchOut(states []int32, sym int32, outs []int32) {
	if sym < 0 || int(sym) >= t.numIn {
		panic(fmt.Sprintf("policy: input %d out of range for associativity %d", sym, t.assoc))
	}
	if len(outs) < len(states) {
		panic(fmt.Sprintf("policy: StepBatchOut outs has %d entries for %d states", len(outs), len(states)))
	}
	next, out := t.next, t.out
	numIn := t.numIn
	s := int(sym)
	for i, st := range states {
		base := int(st)*numIn + s
		states[i] = next[base]
		outs[i] = out[base]
	}
}

// Batch is a structure-of-arrays block of N simulation sessions over one
// compiled table: a contiguous state vector plus a contiguous content
// matrix of dense block ids (row l, column i = the block resident at line
// i of lane l). There are no per-session structs; a lane is an index, a
// fork is a row copy, and a lockstep step is one pass over the vector.
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

// Table returns the shared transition table.
func (b *Batch) Table() *Table { return b.tab }

// Lanes returns the number of sessions in the block.
func (b *Batch) Lanes() int { return len(b.state) }

// States exposes the contiguous state vector; subslices of it feed
// StepBatch directly, with no gather/scatter.
func (b *Batch) States() []int32 { return b.state }

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

// Scan returns the line of lane l holding block id, or -1 — the content
// membership lookup behind hit detection and eviction probes.
func (b *Batch) Scan(l int, id int32) int {
	for i, c := range b.Row(l) {
		if c == id {
			return i
		}
	}
	return -1
}

// StepRun advances the contiguous lane run [lo, hi) by one shared input
// symbol in a single StepBatchOut pass, writing each lane's policy output
// to outs[lo:hi]. Because lanes are SoA-contiguous, there is no gather or
// scatter — the run is a subslice of the state vector.
func (b *Batch) StepRun(lo, hi int, in int, outs []int32) {
	b.tab.StepBatchOut(b.state[lo:hi], int32(in), outs[lo:hi])
}

// StepLane advances lane l by table input in (a line index for a hit, the
// associativity for a miss) and returns the policy output. Content is not
// touched; callers that track residency update the row themselves (see
// AccessLane).
func (b *Batch) StepLane(l, in int) int32 {
	next, out := b.tab.Step(b.state[l], in)
	b.state[l] = next
	return out
}

// AccessLane feeds block id to lane l with full cache semantics: a
// resident block hits at its line, an absent one misses and replaces the
// policy's victim. It returns the hit line or -1, and the victim line or
// -1 — the batched equivalent of one kernel-session Access.
func (b *Batch) AccessLane(l int, id int32) (hit, victim int) {
	row := b.Row(l)
	for i, c := range row {
		if c == id {
			b.state[l], _ = b.tab.Step(b.state[l], i)
			return i, -1
		}
	}
	next, v := b.tab.Step(b.state[l], b.assoc)
	b.state[l] = next
	row[v] = id
	return -1, int(v)
}
