package polca

// The oracle's query engine. Every output query a compiled simulator
// oracle (a *SimProber on the policy kernel) answers runs word by word over
// the policy-output store, with the oracle's engine mutex held across the
// batch and its audits. Every node the engine records holds, next to its
// policy output, the table state its prefix reaches: a reset-rooted run's
// content mirrors the oracle's tracked content exactly (Definition 2.3:
// Ln(i) hits at line i, Evct misses into the table's victim), so outputs
// depend on the state alone and one int32 is the whole cache state. For
// each word the engine
//
//  1. walks the recorded prefix to its deepest recorded node, whose state
//     it resumes from (the reset state when nothing is recorded);
//  2. steps each suffix symbol on the table, recording its output and the
//     state it reaches at a new node.
//
// Stepping the table cannot fail, so a word records all of its suffix or,
// when the whole word is recorded, nothing.
//
// Counters follow from the walk, so they are identical for every chunking
// of the same word stream: memo hits = recorded prefix symbols, one probe
// per word with a suffix, and accesses = suffix length + associativity per
// Evct (the eviction probes a reset-rooted run issues). Holding the engine
// mutex across a batch serializes concurrent callers — polcad's query
// handlers and jobs on one shared engine — so they never interleave their
// words; each word holds outMu, which keeps StoreFootprint and
// SaveSnapshot off the store while it changes.

import "repro/internal/policy"

// engineWord answers one word: walk to the deepest recorded node, then
// step and record the suffix.
func (o *Oracle) engineWord(word []int) []int {
	tab, n := o.sim.tab, o.sim.n
	out := make([]int, len(word))
	store := o.out
	o.outMu.Lock()
	defer o.outMu.Unlock()
	node, st, k := int32(0), tab.InitState(), 0
	for ; k < len(word); k++ {
		c := store.Child(node, word[k])
		if c < 0 || !store.Has(c) {
			break
		}
		node = c
		v := store.Val(c)
		out[k], st = int(v.out), v.state
	}
	o.memoHits.Add(int64(k))
	if k == len(word) {
		return out
	}
	accesses := 0
	for d := k; d < len(word); d++ {
		ip := word[d]
		var v int32
		st, v = tab.Step(st, ip)
		if ip < n {
			// Ln(ip) hits at line ip by the content invariant.
			out[d] = policy.Bottom
			accesses++
		} else {
			// Evct: the table's output is the victim the eviction probes
			// would identify; they are accounted as a reset-rooted run
			// issues them.
			out[d] = int(v)
			accesses += 1 + n
		}
		node = store.Extend(node, ip)
		*store.Val(node) = outVal{out: int16(out[d]), state: st}
		store.SetHas(node)
	}
	o.probesN.Add(1)
	o.accessesN.Add(int64(accesses))
	return out
}

// fillStates stores at every node of the output store the table state its
// prefix reaches, in one depth-first walk: the engine's invariant for
// nodes a snapshot loaded. The caller holds outMu.
func (o *Oracle) fillStates() {
	tab := o.sim.tab
	type frame struct {
		node int32
		st   int32
	}
	stack := []frame{{0, tab.InitState()}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ip := 0; ip < o.out.Degree(); ip++ {
			if c := o.out.Child(f.node, ip); c >= 0 {
				st, _ := tab.Step(f.st, ip)
				o.out.Val(c).state = st
				stack = append(stack, frame{c, st})
			}
		}
	}
}
