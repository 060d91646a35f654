// Package mealy provides explicit deterministic Mealy machines: the common
// representation of replacement policies (Definition 2.1), learned
// hypotheses, and synthesized programs in the CacheQuery pipeline.
//
// The package supports extraction of the explicit machine from any
// policy.Policy by exhaustive state-space exploration, trace-equivalence
// checking with counterexample generation, minimization by partition
// refinement, characterizing sets for W-method conformance testing, and DOT
// export for inspection.
package mealy

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/intern"
	"repro/internal/policy"
)

// Machine is a deterministic Mealy machine with inputs 0..NumInputs-1.
// Outputs are arbitrary ints; the policy convention is policy.Bottom (-1)
// for ⊥ and a line index otherwise.
type Machine struct {
	NumStates int
	NumInputs int
	Init      int
	Next      [][]int // Next[s][a] = successor state
	Out       [][]int // Out[s][a] = output
	// StateNames optionally carries a human-readable name per state (the
	// policy StateKey for extracted machines). It may be nil.
	StateNames []string
}

// New allocates a machine with the given dimensions and all transitions
// looping on state 0 with output policy.Bottom.
func New(numStates, numInputs int) *Machine {
	m := &Machine{
		NumStates: numStates,
		NumInputs: numInputs,
		Next:      make([][]int, numStates),
		Out:       make([][]int, numStates),
	}
	for s := 0; s < numStates; s++ {
		m.Next[s] = make([]int, numInputs)
		m.Out[s] = make([]int, numInputs)
		for a := 0; a < numInputs; a++ {
			m.Out[s][a] = policy.Bottom
		}
	}
	return m
}

// Step returns the successor state and output for one input.
func (m *Machine) Step(state, in int) (next, out int) {
	return m.Next[state][in], m.Out[state][in]
}

// Run executes the machine on word from the initial state and returns the
// produced output word.
func (m *Machine) Run(word []int) []int {
	return m.RunFrom(m.Init, word)
}

// RunFrom executes the machine on word from the given state.
func (m *Machine) RunFrom(state int, word []int) []int {
	out := make([]int, len(word))
	for i, a := range word {
		state, out[i] = m.Step(state, a)
	}
	return out
}

// StateAfter returns the state reached from Init on word.
func (m *Machine) StateAfter(word []int) int {
	s := m.Init
	for _, a := range word {
		s = m.Next[s][a]
	}
	return s
}

// FromPolicy extracts the explicit Mealy machine of a policy. It fails if
// more than maxStates states are reachable (maxStates <= 0 means unbounded).
// The returned machine is reachable by construction; for the policies in
// this repository it is also minimal, but callers that need a guarantee
// should call Minimize.
//
// The exploration is shared with the compiled policy kernel: the policy is
// compiled to a policy.Table (breadth-first over Clone/Apply with StateKey
// identity — the numbering this function always used) and the machine is a
// direct conversion of the table. A policy that already is a *policy.Table
// is converted without any re-exploration.
func FromPolicy(p policy.Policy, maxStates int) (*Machine, error) {
	root := p.Clone()
	root.Reset()
	return FromPolicyState(root, maxStates)
}

// FromPolicyState is FromPolicy with the machine rooted at p's *current*
// control state instead of cs0 — used to build ground-truth machines for
// hardware experiments, where the reset sequence generally parks the policy
// in a reachable state other than the canonical initial one.
func FromPolicyState(p policy.Policy, maxStates int) (*Machine, error) {
	if t, ok := p.(*policy.Table); ok {
		if maxStates > 0 && t.NumStates() > maxStates {
			// The table may contain states unreachable from the current
			// root; only fail once the rooted conversion really exceeds
			// the budget.
			if m := FromTable(t); m.NumStates <= maxStates {
				return m, nil
			}
			return nil, fmt.Errorf("mealy: policy %s has more than %d reachable states", t.Name(), maxStates)
		}
		return FromTable(t), nil
	}
	t, err := policy.CompileState(p, maxStates)
	if err != nil {
		// Re-prefix the compile error so the message reads as one package's
		// ("mealy: policy X has more than N reachable states", exactly the
		// pre-kernel wording), not a double-prefixed chain.
		return nil, fmt.Errorf("mealy: policy %s", strings.TrimPrefix(err.Error(), "policy: "))
	}
	return FromTable(t), nil
}

// FromTable converts an already-compiled policy table into an explicit
// machine rooted at the table's current state, re-exploring nothing: the
// conversion is a breadth-first renumbering walk over the integer arrays.
// When the table is rooted at its own initial state the walk is the
// identity, so extracted machines (and the published model artifacts) are
// byte-identical to the pre-kernel interface exploration.
func FromTable(t *policy.Table) *Machine {
	numIn := t.NumInputs()
	remap := make([]int, t.NumStates())
	for i := range remap {
		remap[i] = -1
	}
	order := []int32{t.State()}
	remap[t.State()] = 0
	for head := 0; head < len(order); head++ {
		s := order[head]
		for a := 0; a < numIn; a++ {
			succ, _ := t.Step(s, a)
			if remap[succ] == -1 {
				remap[succ] = len(order)
				order = append(order, succ)
			}
		}
	}

	m := &Machine{
		NumStates:  len(order),
		NumInputs:  numIn,
		Init:       0,
		Next:       make([][]int, len(order)),
		Out:        make([][]int, len(order)),
		StateNames: make([]string, len(order)),
	}
	// One backing array per table; each row is capped to its own span.
	nflat := make([]int, len(order)*numIn)
	oflat := make([]int, len(order)*numIn)
	for newID, oldID := range order {
		lo, hi := newID*numIn, (newID+1)*numIn
		nrow, orow := nflat[lo:hi:hi], oflat[lo:hi:hi]
		for a := 0; a < numIn; a++ {
			succ, out := t.Step(oldID, a)
			nrow[a] = remap[succ]
			orow[a] = int(out)
		}
		m.Next[newID] = nrow
		m.Out[newID] = orow
		m.StateNames[newID] = t.KeyOf(oldID)
	}
	return m
}

// Equivalent checks trace equivalence of m and o (which must share the input
// alphabet) by a product breadth-first search. If the machines differ it
// returns false and a shortest input word on which their outputs differ.
func (m *Machine) Equivalent(o *Machine) (bool, []int) {
	if m.NumInputs != o.NumInputs {
		panic("mealy: Equivalent requires identical input alphabets")
	}
	type pair struct{ a, b int }
	type entry struct {
		parent int // index into the BFS order, -1 for the root
		in     int
	}
	start := pair{m.Init, o.Init}
	seen := map[pair]int{start: 0}
	order := []pair{start}
	meta := []entry{{parent: -1}}

	for head := 0; head < len(order); head++ {
		cur := order[head]
		for a := 0; a < m.NumInputs; a++ {
			na, oa := m.Step(cur.a, a)
			nb, ob := o.Step(cur.b, a)
			if oa != ob {
				// Reconstruct the word leading here, then append a.
				var rev []int
				rev = append(rev, a)
				for i := head; meta[i].parent != -1; i = meta[i].parent {
					rev = append(rev, meta[i].in)
				}
				word := make([]int, len(rev))
				for i := range rev {
					word[i] = rev[len(rev)-1-i]
				}
				return false, word
			}
			nxt := pair{na, nb}
			if _, ok := seen[nxt]; !ok {
				seen[nxt] = len(order)
				order = append(order, nxt)
				meta = append(meta, entry{parent: head, in: a})
			}
		}
	}
	return true, nil
}

// reachable returns the machine restricted to states reachable from Init.
func (m *Machine) reachable() *Machine {
	remap := make([]int, m.NumStates)
	for i := range remap {
		remap[i] = -1
	}
	order := []int{m.Init}
	remap[m.Init] = 0
	for head := 0; head < len(order); head++ {
		s := order[head]
		for a := 0; a < m.NumInputs; a++ {
			t := m.Next[s][a]
			if remap[t] == -1 {
				remap[t] = len(order)
				order = append(order, t)
			}
		}
	}
	if len(order) == m.NumStates {
		return m
	}
	r := New(len(order), m.NumInputs)
	r.Init = 0
	if m.StateNames != nil {
		r.StateNames = make([]string, len(order))
	}
	for newID, oldID := range order {
		for a := 0; a < m.NumInputs; a++ {
			r.Next[newID][a] = remap[m.Next[oldID][a]]
			r.Out[newID][a] = m.Out[oldID][a]
		}
		if r.StateNames != nil {
			r.StateNames[newID] = m.StateNames[oldID]
		}
	}
	return r
}

// Minimize returns the minimal machine trace-equivalent to m, computed by
// partition refinement over the reachable states. Signatures are interned
// integer-pair chains — the per-round key is the fold of a state's class
// with its successors' classes — so no round formats a single string.
func (m *Machine) Minimize() *Machine {
	r := m.reachable()

	// Initial partition: states with identical output rows.
	class := make([]int, r.NumStates)
	it := intern.New()
	dense := make(map[int32]int)
	for s := 0; s < r.NumStates; s++ {
		sig := it.Word(r.Out[s])
		id, ok := dense[sig]
		if !ok {
			id = len(dense)
			dense[sig] = id
		}
		class[s] = id
	}
	numClasses := len(dense)

	for {
		it := intern.New()
		refined := make(map[int32]int)
		next := make([]int, r.NumStates)
		for s := 0; s < r.NumStates; s++ {
			sig := it.Append(intern.Empty, class[s])
			for a := 0; a < r.NumInputs; a++ {
				sig = it.Append(sig, class[r.Next[s][a]])
			}
			id, ok := refined[sig]
			if !ok {
				id = len(refined)
				refined[sig] = id
			}
			next[s] = id
		}
		if len(refined) == numClasses {
			break
		}
		class = next
		numClasses = len(refined)
	}

	// Build the quotient. Class ids are renumbered so Init maps to 0.
	quot := New(numClasses, r.NumInputs)
	renumber := make([]int, numClasses)
	for i := range renumber {
		renumber[i] = -1
	}
	fresh := 0
	assign := func(c int) int {
		if renumber[c] == -1 {
			renumber[c] = fresh
			fresh++
		}
		return renumber[c]
	}
	assign(class[r.Init])
	for s := 0; s < r.NumStates; s++ {
		c := assign(class[s])
		for a := 0; a < r.NumInputs; a++ {
			quot.Next[c][a] = assign(class[r.Next[s][a]])
			quot.Out[c][a] = r.Out[s][a]
		}
	}
	quot.Init = 0
	return quot
}

// AccessSequences returns, for every state, a shortest input word that
// reaches it from the initial state (the state cover used by conformance
// testing).
func (m *Machine) AccessSequences() [][]int {
	seq := make([][]int, m.NumStates)
	seen := make([]bool, m.NumStates)
	seq[m.Init] = []int{}
	seen[m.Init] = true
	queue := []int{m.Init}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for a := 0; a < m.NumInputs; a++ {
			t := m.Next[s][a]
			if !seen[t] {
				seen[t] = true
				w := make([]int, len(seq[s])+1)
				copy(w, seq[s])
				w[len(w)-1] = a
				seq[t] = w
				queue = append(queue, t)
			}
		}
	}
	return seq
}

// DistinguishingWord returns a shortest input word on which states s and t
// produce different outputs, or nil if they are trace-equivalent. Each call
// allocates a NumStates² visited table; MinimalCharacterizingSet shares one
// across its searches.
func (m *Machine) DistinguishingWord(s, t int) []int {
	return m.distinguish(s, t, make([]bool, m.NumStates*m.NumStates))
}

// distinguish is DistinguishingWord's breadth-first search over state
// pairs, marking pair (a, b) visited at a*NumStates+b. visited must be all
// false on entry and is left so, so one table serves many searches.
func (m *Machine) distinguish(s, t int, visited []bool) []int {
	type entry struct{ a, b, parent, in int }
	n := m.NumStates
	order := []entry{{a: s, b: t, parent: -1}}
	visited[s*n+t] = true
	defer func() {
		for _, e := range order {
			visited[e.a*n+e.b] = false
		}
	}()
	for head := 0; head < len(order); head++ {
		cur := order[head]
		for a := 0; a < m.NumInputs; a++ {
			na, oa := m.Step(cur.a, a)
			nb, ob := m.Step(cur.b, a)
			if oa != ob {
				rev := []int{a}
				for i := head; order[i].parent != -1; i = order[i].parent {
					rev = append(rev, order[i].in)
				}
				slices.Reverse(rev)
				return rev
			}
			if !visited[na*n+nb] {
				visited[na*n+nb] = true
				order = append(order, entry{a: na, b: nb, parent: head, in: a})
			}
		}
	}
	return nil
}

// CharacterizingSet returns a set W of input words such that any two
// inequivalent states of m produce different output vectors on W. The
// machine is minimized internally, so W is also valid for the original
// machine.
func (m *Machine) CharacterizingSet() [][]int {
	return m.Minimize().MinimalCharacterizingSet()
}

// MinimalCharacterizingSet is CharacterizingSet for a machine that Minimize
// returned, skipping the minimization: a caller that needs the minimal
// machine anyway computes it once. It panics when m has equivalent states.
//
// W grows one word at a time. The states are partitioned into blocks by
// their outputs on W so far; the next word is a shortest word
// distinguishing the two smallest states of the block holding the
// smallest state that shares its block. Only blocks of two or more states
// are refined by a new word: a singleton block never splits again.
func (m *Machine) MinimalCharacterizingSet() [][]int {
	n := m.NumStates
	if n <= 1 {
		// A single word suffices (any input); W must be non-empty for the
		// W-method to exercise outputs.
		return [][]int{{0}}
	}
	block := make([]int32, n) // all states start in block 0
	size := []int32{int32(n)}
	visited := make([]bool, n*n)
	it := intern.New()
	var w [][]int
	for {
		s, t := -1, -1
		for u := 0; u < n && t < 0; u++ {
			switch {
			case s < 0 && size[block[u]] > 1:
				s = u
			case s >= 0 && block[u] == block[s]:
				t = u
			}
		}
		if s < 0 {
			return w
		}
		d := m.distinguish(s, t, visited)
		if d == nil {
			panic("mealy: minimized machine has equivalent states")
		}
		w = append(w, d)
		// Move the states of every shared block to new blocks, one per
		// interned output word on d; the old blocks are left empty.
		split := make(map[[2]int32]int32)
		for u := 0; u < n; u++ {
			b := block[u]
			if size[b] < 2 {
				continue
			}
			acc, q := intern.Empty, u
			for _, a := range d {
				var o int
				q, o = m.Step(q, a)
				acc = it.Append(acc, o)
			}
			nb, ok := split[[2]int32{b, acc}]
			if !ok {
				nb = int32(len(size))
				size = append(size, 0)
				split[[2]int32{b, acc}] = nb
			}
			size[nb]++
			block[u] = nb
		}
	}
}

// RelabelLines conjugates a policy machine by a cache-line permutation:
// input Ln(i) becomes Ln(perm[i]), Evct is unchanged, and every non-⊥
// output o becomes perm[o]. Two learning runs that label the same physical
// lines differently (because their resets arrange blocks differently)
// produce machines related by exactly such a relabeling.
func (m *Machine) RelabelLines(perm []int) *Machine {
	n := m.NumInputs - 1
	if len(perm) != n {
		panic("mealy: permutation length does not match associativity")
	}
	r := New(m.NumStates, m.NumInputs)
	r.Init = m.Init
	for s := 0; s < m.NumStates; s++ {
		for a := 0; a < m.NumInputs; a++ {
			na := a
			if a < n {
				na = perm[a]
			}
			out := m.Out[s][a]
			if out >= 0 {
				out = perm[out]
			}
			r.Next[s][na] = m.Next[s][a]
			r.Out[s][na] = out
		}
	}
	return r
}

// ShortestEvictionWord returns a shortest input word, starting from `from`,
// whose final input is Evct and whose final output is the target line — an
// "eviction strategy" in the sense of the paper's security discussion
// (§10): detailed policy models let an attacker compute minimal access
// sequences that force a victim line out of the cache. It returns nil if no
// such word exists.
func (m *Machine) ShortestEvictionWord(from, line int) []int {
	evct := m.NumInputs - 1
	type entry struct {
		parent int
		in     int
	}
	seen := make([]bool, m.NumStates)
	seen[from] = true
	order := []int{from}
	meta := []entry{{parent: -1}}
	reconstruct := func(head, last int) []int {
		var rev []int
		rev = append(rev, last)
		for i := head; meta[i].parent != -1; i = meta[i].parent {
			rev = append(rev, meta[i].in)
		}
		word := make([]int, len(rev))
		for i := range rev {
			word[i] = rev[len(rev)-1-i]
		}
		return word
	}
	for head := 0; head < len(order); head++ {
		s := order[head]
		if m.Out[s][evct] == line {
			return reconstruct(head, evct)
		}
		for a := 0; a < m.NumInputs; a++ {
			t := m.Next[s][a]
			if !seen[t] {
				seen[t] = true
				order = append(order, t)
				meta = append(meta, entry{parent: head, in: a})
			}
		}
	}
	return nil
}

// DOT renders the machine in Graphviz DOT format using the policy
// input/output conventions for edge labels. assoc is the associativity used
// to render the Evct input; pass NumInputs-1.
func (m *Machine) DOT(name string) string {
	assoc := m.NumInputs - 1
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", name)
	fmt.Fprintf(&sb, "  __start [shape=point];\n  __start -> s%d;\n", m.Init)
	for s := 0; s < m.NumStates; s++ {
		label := fmt.Sprintf("s%d", s)
		if m.StateNames != nil && m.StateNames[s] != "" {
			label = m.StateNames[s]
		}
		fmt.Fprintf(&sb, "  s%d [label=%q];\n", s, label)
		for a := 0; a < m.NumInputs; a++ {
			fmt.Fprintf(&sb, "  s%d -> s%d [label=%q];\n",
				s, m.Next[s][a],
				fmt.Sprintf("%s/%s", policy.InputString(assoc, a), policy.OutputString(m.Out[s][a])))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
