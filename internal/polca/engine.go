package polca

// The oracle's query engine. Every output query a simulator oracle
// (*SimProber) answers — single words through OutputQuery, chunks through
// OutputQueryBatch — runs word by word over the policy-output store, with
// the oracle's engine mutex held across the batch and its audits. For each
// word the engine
//
//  1. walks the recorded prefix, noting the deepest parked position on it;
//  2. touches that position and resumes from it (from reset when the path
//     parks none);
//  3. fast-forwards over the recorded tail to the divergence frontier,
//     where it parks: sibling queries share exactly this prefix;
//  4. steps each suffix symbol, recording its output and parking the new
//     position.
//
// A parked position is one int32 in the node's outVal. On a compiled
// prober (sp.tab != nil) it is the table state: a reset-rooted session's
// content mirrors the oracle's tracked content exactly (Definition 2.3:
// Ln(i) hits at line i, Evct misses into the table's victim), so outputs
// depend on the state alone and stepping a suffix is pure table lookup.
// On an interpreted prober it is a slot in the oracle's session slab (a
// forked Session), and an Evct's victim is found by associativity-many
// eviction probes.
//
// A word executes before it touches the store: its outputs and the
// positions it parks are staged, then recorded and parked in order only
// once the whole word succeeded. A failing word records and parks nothing;
// earlier words of its batch stay recorded.
//
// Counters follow from the walk, so they are identical for both executors
// and for every chunking of the same word stream: memo hits = recorded
// prefix symbols, one probe per word with a suffix, and accesses =
// fast-forward length + suffix length + associativity per Evct (the
// eviction probes a session issues). Resuming from a parked position costs
// nothing, which is why the per-shard LRU and its budget stay: they decide
// how long a fast-forward is. Holding the engine mutex across a batch
// serializes concurrent callers — polcad's query handlers and jobs on one
// shared engine — so they never interleave store operations.

import (
	"context"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// engineHint is the BatchHint of a simulator oracle. It fixes how the
// learner chunks its queries, and so its query trajectory and counters;
// a constant keeps that trajectory independent of the host.
const engineHint = 16

// engineBatch answers words one by one. Sequence numbers, symbol counters
// and determinism audits are issued in word order. A word with an
// out-of-range symbol fails the batch before any state changes.
func (o *Oracle) engineBatch(ctx context.Context, words [][]int) ([][]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkInputs(o.sim.n, words...); err != nil {
		return nil, err
	}
	out, err := o.engineRun(ctx, words)
	if err != nil {
		return nil, err
	}
	o.maybeCheckpoint()
	return out, nil
}

// engineRun holds the engine mutex across the words and their audits,
// which re-execute on the prober itself.
func (o *Oracle) engineRun(ctx context.Context, words [][]int) ([][]int, error) {
	o.engine.Lock()
	defer o.engine.Unlock()
	out := make([][]int, len(words))
	for i, w := range words {
		seq := int(o.outputQueries.Add(1))
		o.symbols.Add(int64(len(w)))
		ans, err := o.engineWord(w)
		if err != nil {
			return nil, err
		}
		if err := o.audit(ctx, seq, w, ans); err != nil {
			return nil, err
		}
		out[i] = ans
	}
	return out, nil
}

// engineWord answers one word: walk, resume, execute, then record and park.
func (o *Oracle) engineWord(word []int) ([]int, error) {
	out := make([]int, len(word))
	sh := o.out.Acquire(word)
	defer sh.Release()
	node, k := int32(0), 0
	// The deepest parked node on the path, its depth and its position.
	resume, rd, from := int32(-1), 0, int32(-1)
	for ; k < len(word); k++ {
		c := sh.Child(node, word[k])
		if c < 0 || !sh.Has(c) {
			break
		}
		node = c
		out[k] = int(sh.Val(c).out)
		if p := sh.Val(c).park; p != 0 {
			resume, rd, from = c, k+1, p-1
		}
	}
	o.memoHits.Add(int64(k))
	if resume >= 0 {
		o.touch(sh, resume)
	}
	if k == len(word) {
		return out, nil
	}
	var states []int32     // compiled: the table state at depth k+j
	var sessions []Session // interpreted: the session at depth k+j
	var accesses int
	if o.sim.tab != nil {
		states, accesses = o.runCompiled(word, out, k, rd, from)
	} else {
		var err error
		if sessions, accesses, err = o.runSessions(word, out, k, rd, from); err != nil {
			return nil, err
		}
	}
	// parkAt parks the position at depth k+j on node; an interpreted
	// session takes its slab slot only now, so the slab never holds more
	// than the parked budget plus the slot being parked.
	parkAt := func(node int32, j int) {
		if sessions != nil {
			o.park(sh, node, o.slabPut(sessions[j]))
		} else {
			o.park(sh, node, states[j])
		}
	}
	if rd < k {
		parkAt(node, 0)
	}
	for d := k; d < len(word); d++ {
		node = sh.Extend(node, word[d])
		sh.Val(node).out = int16(out[d])
		sh.SetHas(node)
		parkAt(node, d-k+1)
	}
	o.probesN.Add(1)
	o.accessesN.Add(int64(accesses))
	return out, nil
}

// runCompiled executes word[k:] on the compiled table from the parked
// state from (-1: reset) at depth rd, writing the suffix outputs to out.
// It returns the table state at every depth from k on and the accesses a
// session would have issued.
func (o *Oracle) runCompiled(word, out []int, k, rd int, from int32) ([]int32, int) {
	tab, n := o.sim.tab, o.sim.n
	st := from
	if st < 0 {
		st = tab.InitState()
	}
	// Fast-forward the recorded tail: no eviction probes.
	for d := rd; d < k; d++ {
		st, _ = tab.Step(st, word[d])
	}
	accesses := k - rd
	states := make([]int32, 1, len(word)-k+1)
	states[0] = st
	for d := k; d < len(word); d++ {
		ip := word[d]
		if ip < n {
			// Ln(ip) hits at line ip by the content invariant.
			st, _ = tab.Step(st, ip)
			out[d] = policy.Bottom
			accesses++
		} else {
			// Evct: the table's output is the victim the eviction probes
			// would identify; they are accounted as a session issues them.
			var v int32
			st, v = tab.Step(st, n)
			out[d] = int(v)
			accesses += 1 + n
		}
		states = append(states, st)
	}
	return states, accesses
}

// runSessions executes word[k:] on a Session resumed from the slab slot
// from (-1: reset) at depth rd, writing the suffix outputs to out. It
// returns a session at every depth from k on (nil at the frontier when
// rd == k: nothing parks there) and the accesses issued.
func (o *Oracle) runSessions(word, out []int, k, rd int, from int32) ([]Session, int, error) {
	var sess Session
	var err error
	if from >= 0 {
		sess, err = o.slab[from].Fork()
	} else {
		sess, err = o.sim.NewSession()
	}
	if err != nil {
		return nil, 0, err
	}
	cc := append([]int32(nil), o.cc0IDs...)
	accesses := 0
	// Fast-forward the recorded tail: outputs are known, so this is pure
	// feeding with no eviction probes.
	for d := 0; d < k; d++ {
		b := mapInputID(word[d], cc)
		if d >= rd {
			if _, err := sess.Access(blocks.Interned(int(b))); err != nil {
				return nil, 0, err
			}
			accesses++
		}
		if op := out[d]; op != policy.Bottom {
			cc[op] = b
		}
	}
	sessions := make([]Session, 1, len(word)-k+1)
	if rd < k {
		if sessions[0], err = sess.Fork(); err != nil {
			return nil, 0, err
		}
	}
	for d := k; d < len(word); d++ {
		b := mapInputID(word[d], cc)
		op, acc, err := stepSession(sess, word[d], b, cc)
		accesses += acc
		if err != nil {
			return nil, 0, err
		}
		if op != policy.Bottom {
			cc[op] = b
		}
		out[d] = op
		park := sess
		if d < len(word)-1 {
			if park, err = sess.Fork(); err != nil {
				return nil, 0, err
			}
		}
		sessions = append(sessions, park)
	}
	return sessions, accesses, nil
}

// stepSession feeds block b for input ip to sess and maps the outcome back
// to a policy output, finding an Evct's victim among the tracked content
// cc with associativity-many eviction probes. It returns the output and
// the accesses issued.
func stepSession(sess Session, ip int, b int32, cc []int32) (int, int, error) {
	n := len(cc)
	oc, err := sess.Access(blocks.Interned(int(b)))
	if err != nil {
		return 0, 0, err
	}
	if err := checkAccess(ip, n, oc, b); err != nil {
		return 0, 1, err
	}
	if ip < n {
		return policy.Bottom, 1, nil
	}
	ocs := make([]cache.Outcome, n)
	for j := range ocs {
		if ocs[j], err = evictionProbe(sess, blocks.Interned(int(cc[j]))); err != nil {
			return 0, 1 + j, err
		}
	}
	evicted, err := victim(ocs, cc)
	return evicted, 1 + n, err
}
