package policy

// This file implements the compiled policy kernel: the interpreter→compiled
// dispatch move of the VM-optimization literature applied to replacement
// policies. The paper's policies are finite Mealy machines (Definition 2.1),
// so instead of interpreting them through the Policy interface — virtual
// OnHit/OnMiss dispatch per access, string StateKey encoding for identity,
// deep Clone per forked session — Compile explores the control-state space
// once and freezes it into a dense integer transition table. A *Table is
// itself a Policy, so it is a drop-in replacement everywhere, with O(1)
// Clone (the mutable state is one int32), O(1) StateKey (a precomputed
// string per state id), and one array lookup per input symbol.
//
// The exploration is the canonical one: breadth-first over Apply with
// StateKey identity (carried by integer keys, see CompileState), exactly
// the order internal/mealy extraction used before it was re-platformed onto
// Compile — so the state numbering (and hence every published model
// artifact) is unchanged. CompileNamed compiles each registered policy once
// per process and shares the table.

import (
	"fmt"
	"strings"
	"sync"
)

// DefaultCompileStates is the state-count bound Compile enforces: policies
// with more reachable control states stay interpreted. It comfortably covers
// every assoc-8 policy in the zoo (SRRIP-FP-8 tops out at 65,536 states)
// while keeping a compile attempt on an unexpectedly huge policy bounded.
const DefaultCompileStates = 1 << 17

// Table is a policy compiled to dense next-state/output tables over interned
// state ids. The arrays are immutable after compilation and shared by every
// clone; the only mutable field is the current state id, which is what makes
// compiled sessions copyable values.
type Table struct {
	name  string
	assoc int
	numIn int
	init  int32
	state int32
	next  []int32  // next[int(s)*numIn+a] = successor state id
	out   []int32  // out[int(s)*numIn+a] = policy output (Bottom or a line)
	keys  []string // canonical interpreted StateKey per state id
}

// Compile compiles p into a transition table by exhaustive exploration of
// its control-state space from the initial state cs0, bounded by
// DefaultCompileStates. It fails — and the caller should fall back to the
// interpreted policy — when the bound is exceeded or when p violates the
// deterministic StateKey contract (e.g. policy.Random, whose behaviour is
// not a function of its StateKey).
func Compile(p Policy) (*Table, error) {
	return CompileBound(p, DefaultCompileStates)
}

// CompileBound is Compile with an explicit state-count bound; maxStates <= 0
// means unbounded.
func CompileBound(p Policy, maxStates int) (*Table, error) {
	root := p.Clone()
	root.Reset()
	return CompileState(root, maxStates)
}

// CompileState compiles the table rooted at p's *current* control state
// instead of cs0 — the compiled analog of mealy.FromPolicyState, used to
// build ground-truth machines for hardware experiments where the reset
// sequence parks the policy in a state other than the canonical initial one.
//
// The search identifies states by integer keys (see stateSpace): the packed
// control state of a StatePacker, or else the StateKey string interned to a
// dense id. Either key is equal for two states exactly when their StateKeys
// are, so the numbering is the one a StateKey-keyed search gives. The
// table's StateKey strings are formatted only once the search has
// succeeded.
func CompileState(p Policy, maxStates int) (*Table, error) {
	n := p.Assoc()
	numIn := NumInputs(n)
	root := p.Clone()

	hint := 64 // initial capacity in states, up to a small bound
	if maxStates > 0 {
		hint = min(maxStates, 256)
	}
	sp := newStateSpace(root)
	rootKey, _ := sp.key(root)
	index := make(map[uint64]int32, hint)
	index[rootKey] = 0
	ids := append(make([]uint64, 0, hint), rootKey) // search key per state id
	next := make([]int32, 0, hint*numIn)
	out := make([]int32, 0, hint*numIn)

	for head := 0; head < len(ids); head++ {
		for a := 0; a < numIn; a++ {
			succ := sp.load(head, ids[head])
			o := Apply(succ, a)
			k, ok := sp.key(succ)
			if !ok {
				return nil, fmt.Errorf("policy: %s packs some control states but not others", p.Name())
			}
			id, seen := index[k]
			if !seen {
				id = int32(len(ids))
				if maxStates > 0 && int(id) >= maxStates {
					return nil, fmt.Errorf("policy: %s has more than %d reachable states", p.Name(), maxStates)
				}
				index[k] = id
				ids = append(ids, k)
				sp.keep(succ)
			}
			next = append(next, id)
			out = append(out, int32(o))
		}
	}

	keys := make([]string, len(ids))
	for i, k := range ids {
		keys[i] = sp.load(i, k).StateKey()
	}
	t := &Table{
		name:  p.Name(),
		assoc: n,
		numIn: numIn,
		init:  0,
		state: 0,
		next:  next,
		out:   out,
		keys:  keys,
	}
	if err := t.validate(root, sp, ids); err != nil {
		return nil, err
	}
	return t, nil
}

// stateSpace is how the compile search reaches and identifies control
// states. A StatePacker is searched on its packed states: one scratch
// instance is unpacked to each state in turn, so a transition allocates
// nothing. Any other policy keeps one instance per state, steps clones of
// it, and is identified by its StateKey interned to a dense id.
type stateSpace struct {
	packer   StatePacker // the scratch instance of a packing policy
	scratch  Policy
	states   []Policy // per state id, for policies that do not pack
	interned map[string]uint64
}

func newStateSpace(root Policy) *stateSpace {
	if pk, ok := root.(StatePacker); ok {
		if _, ok := pk.PackState(); ok {
			s := root.Clone()
			return &stateSpace{packer: s.(StatePacker), scratch: s}
		}
	}
	return &stateSpace{states: []Policy{root}, interned: make(map[string]uint64)}
}

// load returns an instance in state id (search key k) that the caller may
// step.
func (sp *stateSpace) load(id int, k uint64) Policy {
	if sp.packer != nil {
		sp.packer.UnpackState(k)
		return sp.scratch
	}
	return sp.states[id].Clone()
}

// key returns q's search key; false when q packs no state although the
// search runs on packed states.
func (sp *stateSpace) key(q Policy) (uint64, bool) {
	if sp.packer != nil {
		return q.(StatePacker).PackState()
	}
	s := q.StateKey()
	id, seen := sp.interned[s]
	if !seen {
		id = uint64(len(sp.interned))
		sp.interned[s] = id
	}
	return id, true
}

// keep records q, just loaded and stepped, as the newest state.
func (sp *stateSpace) keep(q Policy) {
	if sp.packer == nil {
		sp.states = append(sp.states, q)
	}
}

// compiled is CompileNamed's process-wide cache: one single-flight slot per
// (name, associativity, bound).
var compiled sync.Map // namedKey -> *compileSlot

type namedKey struct {
	name         string
	assoc, bound int
}

type compileSlot struct {
	once sync.Once
	tab  *Table
	err  error
}

// CompileNamed compiles the registered policy name at assoc within
// maxStates (<= 0: unbounded) once per process. Concurrent callers of one
// key wait for the first one's search, and a failure — typically "more
// than maxStates reachable states" — is remembered like a table. The table
// is shared by every caller, so a caller that steps it takes its own view
// (t.At(t.InitState())) and never steps the returned value.
func CompileNamed(name string, assoc, maxStates int) (*Table, error) {
	k := namedKey{strings.ToLower(name), assoc, max(maxStates, 0)}
	v, ok := compiled.Load(k)
	if !ok {
		v, _ = compiled.LoadOrStore(k, new(compileSlot))
	}
	slot := v.(*compileSlot)
	slot.once.Do(func() {
		p, err := New(name, assoc)
		if err != nil {
			slot.err = err
			return
		}
		slot.tab, slot.err = CompileBound(p, maxStates)
	})
	return slot.tab, slot.err
}

// validate spot-checks the compiled table against the interpreted policy by
// replaying a fixed pseudo-random input word and comparing outputs and state
// identities (the search keys, ids[s] for state s) symbol by symbol, and the
// StateKey strings of the last state. Exploration alone cannot detect a
// policy whose behaviour is not a function of its StateKey (the contract
// Policy documents): such a policy — policy.Random, or any Clone that
// shares mutable state — folds distinct behaviours onto one table state,
// and the replay diverges almost immediately.
func (t *Table) validate(root Policy, sp *stateSpace, ids []uint64) error {
	steps := 128 + 4*len(t.keys)
	if steps > 2048 {
		steps = 2048
	}
	ref := root.Clone()
	state := t.state
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < steps; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		a := int(rng>>33) % t.numIn
		base := int(state)*t.numIn + a
		want := Apply(ref, a)
		state = t.next[base]
		if int(t.out[base]) != want {
			return fmt.Errorf("policy: %s is not compilable: output diverged from the interpreter at replay step %d (StateKey does not determine behaviour)", t.name, i)
		}
		if k, ok := sp.key(ref); !ok || k != ids[state] || (i == steps-1 && t.keys[state] != ref.StateKey()) {
			return fmt.Errorf("policy: %s is not compilable: state key diverged from the interpreter at replay step %d", t.name, i)
		}
	}
	return nil
}

// CompileOrSelf returns the compiled table of p when p is compilable within
// the default state bound, and p itself otherwise — the interpreted-fallback
// helper the simulator layers use to make the kernel default-on without
// refusing uncompilable policies. A policy that is already a *Table is
// returned as is.
func CompileOrSelf(p Policy) Policy {
	if t, ok := p.(*Table); ok {
		return t
	}
	if t, err := Compile(p); err == nil {
		return t
	}
	return p
}

// Name implements Policy: the compiled table keeps the source policy's name.
func (t *Table) Name() string { return t.name }

// Assoc implements Policy.
func (t *Table) Assoc() int { return t.assoc }

// NumStates returns the number of compiled control states.
func (t *Table) NumStates() int { return len(t.keys) }

// NumInputs returns the size of the input alphabet (Assoc()+1).
func (t *Table) NumInputs() int { return t.numIn }

// OnHit implements Policy: one array lookup.
func (t *Table) OnHit(line int) {
	checkLine(t.assoc, line)
	t.state = t.next[int(t.state)*t.numIn+line]
}

// OnMiss implements Policy: one array lookup for the victim and one for the
// successor state.
func (t *Table) OnMiss() int {
	base := int(t.state)*t.numIn + t.assoc
	v := t.out[base]
	t.state = t.next[base]
	return int(v)
}

// Reset implements Policy.
func (t *Table) Reset() { t.state = t.init }

// StateKey implements Policy: the canonical interpreted key of the current
// state, served from the table — no formatting, identical strings to the
// interpreted policy's StateKey.
func (t *Table) StateKey() string { return t.keys[t.state] }

// Clone implements Policy: the arrays are shared, only the one-int32 state
// is copied.
func (t *Table) Clone() Policy {
	c := *t
	return &c
}

// State returns the current control state id — the value layers that carry
// table states directly (cache sets, forked simulator sessions) fork and
// park instead of policy objects.
func (t *Table) State() int32 { return t.state }

// InitState returns the id of the state the table was rooted at.
func (t *Table) InitState() int32 { return t.init }

// At returns an independent view of the table positioned at state s.
func (t *Table) At(s int32) *Table {
	t.check(s)
	c := *t
	c.state = s
	return &c
}

// Step is the pure kernel transition: successor state and output of one
// input symbol from state s, without touching the receiver's current state.
func (t *Table) Step(s int32, in int) (next, out int32) {
	t.check(s)
	if in < 0 || in >= t.numIn {
		panic(fmt.Sprintf("policy: input %d out of range for associativity %d", in, t.assoc))
	}
	base := int(s)*t.numIn + in
	return t.next[base], t.out[base]
}

// KeyOf returns the canonical interpreted StateKey of state s.
func (t *Table) KeyOf(s int32) string {
	t.check(s)
	return t.keys[s]
}

func (t *Table) check(s int32) {
	if s < 0 || int(s) >= len(t.keys) {
		panic(fmt.Sprintf("policy: state %d out of range for %d-state table", s, len(t.keys)))
	}
}
