package polca

// The oracle's query engine. Every output query a simulator oracle
// (*SimProber) answers — single words through OutputQuery, chunks through
// OutputQueryBatch — runs three phases over the policy-output store, with
// the oracle's engine mutex held across all of them:
//
//  1. Plan (serial, word order): walk every word's known prefix under its
//     shard lock, with a batch-local overlay so a word sees the prefixes
//     earlier words of the same batch will record. Pending words get a
//     lane; their suffix paths are created up front and placeholder
//     sessions are parked through the regular LRU, reserving each node
//     with the recency a word-at-a-time oracle would give the real fork.
//  2. Execute (word order, so producer lanes finish before the lanes that
//     resume from their parks): a lane resumes from the deepest session
//     parked on its path — a real one, a producer lane's placeholder, or
//     reset — feeds the known tail, then the pending suffix, snapshotting
//     its state at every park depth. The prober picks the executor:
//     - compiled (sp.tab != nil): a lane's cache state is one int32 table
//       state plus one int32 content row of a structure-of-arrays block
//       (policy.Batch). The policy input encoding coincides with the
//       kernel's table inputs, and a reset-rooted session's content
//       mirrors the oracle's tracked content cc exactly (Definition 2.3:
//       Ln(i) hits at line i, Evct misses into the table's victim), so
//       replaying a suffix is pure table stepping and a park snapshot is a
//       row copy.
//     - sessions (interpreted or uncompilable policies): a lane runs on a
//       Session, an Evct's victim is found by the associativity-many
//       eviction probes, and a park snapshot is a fork.
//  3. Record (serial, word order): write outputs along each word's path
//     and replace every placeholder that survived the LRU with the
//     session its snapshot stands for. Placeholders the LRU evicted are
//     dropped, exactly as a word-at-a-time oracle would drop the fork.
//
// Counters follow from the plan, so they are identical for both executors
// and for every chunking of the same word stream: memo hits = known-prefix
// symbols (overlay included, which is what word-at-a-time answering would
// have recorded by then), one probe per pending word, and accesses =
// fast-forward length + suffix length + associativity per Evct (the
// eviction probes a session issues). Holding the engine mutex across the
// phases keeps placeholders private to their batch: concurrent callers —
// polcad's query handlers and jobs on one shared engine — serialize
// instead of interleaving.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// engineHint is the BatchHint of a simulator oracle: planning pays off
// with deep chunks whatever the host, so the hint is a constant and the
// learner's query trajectory does not depend on the core count.
const engineHint = 16

// errBatchPlaceholder surfaces if a placeholder session escapes its batch.
var errBatchPlaceholder = errors.New("polca: batch placeholder session used outside its batch")

// batchPark is the placeholder Session parked during the plan phase: it
// holds a node's LRU slot with the recency the real fork would get, and
// names the lane and depth whose snapshot replaces it at record time.
type batchPark struct {
	lane  int
	depth int
}

// Access implements Session (never legitimately called).
func (p *batchPark) Access(blocks.Block) (cache.Outcome, error) {
	return cache.Miss, errBatchPlaceholder
}

// Fork implements Session (never legitimately called).
func (p *batchPark) Fork() (Session, error) { return nil, errBatchPlaceholder }

// plannedPark is one placeholder parked at a store node, with the snapshot
// the executor takes for it: an SoA row (compiled) or a fork (sessions).
type plannedPark struct {
	depth int
	node  int32
	row   int
	sess  Session
	ph    *batchPark
}

// outPatch fills out[pos] from a producer lane once it has executed: the
// position was known at plan time only through the batch-local overlay.
type outPatch struct {
	pos     int
	srcLane int
	srcPos  int
}

// batchPlan is one word's plan.
type batchPlan struct {
	word []int
	out  []int

	lane        int // execution lane, -1 when the word is fully known
	k           int // known-prefix length at plan time
	resumeDepth int
	resume      Session // real session parked at resumeDepth, nil otherwise
	srcLane     int     // producer lane when resuming a placeholder, -1 otherwise
	srcDepth    int

	parks   []plannedPark
	patches []outPatch
}

// ovKey identifies a store node across shards for the batch-local overlay.
type ovKey struct {
	shard int
	node  int32
}

// ovVal names the lane and position that will produce the node's output.
type ovVal struct {
	lane int
	pos  int
}

// batchRun is one engine pass over a batch of words. See the file comment
// for the three phases.
type batchRun struct {
	o       *Oracle
	sp      *SimProber
	plans   []batchPlan
	byLane  []*batchPlan
	overlay map[ovKey]ovVal
	bt      *policy.Batch // compiled executor's SoA block
}

// engineBatch answers words through plan → execute → record. Sequence
// numbers, symbol counters and determinism audits are issued in word order
// exactly as word-by-word queries would. A word with an out-of-range
// symbol fails the batch before any state changes.
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

// engineRun holds the engine mutex across the three phases and the audits,
// which re-execute on the prober itself.
func (o *Oracle) engineRun(ctx context.Context, words [][]int) ([][]int, error) {
	o.engine.Lock()
	defer o.engine.Unlock()
	seqs := make([]int, len(words))
	for i, w := range words {
		seqs[i] = int(o.outputQueries.Add(1))
		o.symbols.Add(int64(len(w)))
	}
	br := &batchRun{o: o, sp: o.sim}
	br.plan(words)
	var err error
	if br.sp.tab != nil {
		err = br.executeCompiled()
	} else {
		err = br.executeSessions()
	}
	if err != nil {
		br.dropPlaceholders()
		return nil, err
	}
	br.record()
	out := make([][]int, len(words))
	for i := range br.plans {
		out[i] = br.plans[i].out
		if err := o.audit(ctx, seqs[i], words[i], out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plan walks every word in order, splitting it into a known prefix and a
// pending suffix, and parks placeholders along the suffix path. All store
// and LRU mutations happen in exactly the order word-at-a-time answering
// would perform them.
func (br *batchRun) plan(words [][]int) {
	o := br.o
	br.plans = make([]batchPlan, len(words))
	parkRows := 0
	for i, word := range words {
		p := &br.plans[i]
		p.word = word
		p.out = make([]int, len(word))
		p.lane = -1
		p.srcLane = -1

		sh := o.out.Acquire(word)
		node := int32(0)
		k := 0
		resumeNode := int32(-1)
		resumeDepth := 0
		for k < len(word) {
			ip := word[k]
			c := sh.Child(node, ip)
			if c < 0 {
				break
			}
			if sh.Has(c) {
				p.out[k] = int(sh.Val(c).out)
			} else if ov, ok := br.overlay[ovKey{shard: sh.Index(), node: c}]; ok {
				p.patches = append(p.patches, outPatch{pos: k, srcLane: ov.lane, srcPos: ov.pos})
			} else {
				break
			}
			node = c
			k++
			if sh.Val(c).sess != nil {
				resumeNode, resumeDepth = c, k
			}
		}
		p.k = k
		o.memoHits.Add(int64(k))
		if resumeNode >= 0 {
			o.touch(sh, resumeNode)
		}
		if k == len(word) {
			sh.Release()
			continue
		}
		if resumeNode >= 0 {
			if ph, ok := sh.Val(resumeNode).sess.(*batchPark); ok {
				p.srcLane, p.srcDepth = ph.lane, ph.depth
			} else {
				p.resume = sh.Val(resumeNode).sess
			}
			p.resumeDepth = resumeDepth
		}
		p.lane = len(br.byLane)
		br.byLane = append(br.byLane, p)
		if p.resumeDepth < k {
			// Park at the divergence frontier: sibling queries of this word
			// share exactly this prefix.
			ph := &batchPark{lane: p.lane, depth: k}
			o.park(sh, node, ph)
			p.parks = append(p.parks, plannedPark{depth: k, node: node, ph: ph})
		}
		for d := k; d < len(word); d++ {
			node = sh.Extend(node, word[d])
			if i < len(words)-1 { // only later words of the batch read the overlay
				if br.overlay == nil {
					br.overlay = make(map[ovKey]ovVal)
				}
				br.overlay[ovKey{shard: sh.Index(), node: node}] = ovVal{lane: p.lane, pos: d}
			}
			ph := &batchPark{lane: p.lane, depth: d + 1}
			o.park(sh, node, ph)
			p.parks = append(p.parks, plannedPark{depth: d + 1, node: node, ph: ph})
		}
		parkRows += len(p.parks)
		sh.Release()
	}
	if br.sp.tab == nil {
		return
	}
	// Assign SoA rows: one lane per pending word, then one row per park.
	row := len(br.byLane)
	for i := range br.plans {
		p := &br.plans[i]
		for j := range p.parks {
			p.parks[j].row = row
			row++
		}
	}
	br.bt = policy.NewBatch(br.sp.tab, len(br.byLane)+parkRows, o.cc0IDs)
}

// patch resolves p's overlay-known positions: their producer lanes ran
// already.
func (br *batchRun) patch(p *batchPlan) {
	for _, pt := range p.patches {
		p.out[pt.pos] = br.byLane[pt.srcLane].out[pt.srcPos]
	}
}

// parkOf returns the planned park of (lane, depth).
func (br *batchRun) parkOf(lane, depth int) *plannedPark {
	parks := br.byLane[lane].parks
	for i := range parks {
		if parks[i].depth == depth {
			return &parks[i]
		}
	}
	panic(fmt.Sprintf("polca: no park for lane %d depth %d", lane, depth))
}

// executeCompiled replays every pending lane over the SoA block.
func (br *batchRun) executeCompiled() error {
	o, bt, tab, n := br.o, br.bt, br.sp.tab, br.sp.n
	for i := range br.plans {
		p := &br.plans[i]
		br.patch(p)
		if p.lane < 0 {
			continue
		}
		switch {
		case p.resume != nil:
			ks, ok := p.resume.(*kernelSession)
			if !ok {
				return fmt.Errorf("polca: non-kernel session parked under a compiled prober at depth %d", p.resumeDepth)
			}
			row := make([]int32, n)
			for j, b := range ks.content {
				id, _ := blocks.Index(b)
				row[j] = int32(id)
			}
			bt.LoadLane(p.lane, ks.state, row)
		case p.srcLane >= 0:
			bt.CopyLane(p.lane, br.parkOf(p.srcLane, p.srcDepth).row)
		default:
			// Fresh from reset: NewBatch seeded the lane already.
		}
		st := bt.State(p.lane)
		row := bt.Row(p.lane)
		accesses := 0
		// Fast-forward the known tail: outputs are recorded, so this is
		// pure stepping with no eviction probes.
		for d := p.resumeDepth; d < p.k; d++ {
			st, _ = tab.Step(st, p.word[d])
			if op := p.out[d]; op != policy.Bottom {
				row[op] = freshID(row)
			}
			accesses++
		}
		pk := 0
		for d := p.k; ; d++ {
			if pk < len(p.parks) && p.parks[pk].depth == d {
				bt.SetState(p.lane, st)
				bt.CopyLane(p.parks[pk].row, p.lane)
				pk++
			}
			if d == len(p.word) {
				break
			}
			ip := p.word[d]
			if ip < n {
				// Ln(ip): the fed block is the content of line ip, so it
				// hits there by the content/cc invariant — table input ip.
				st, _ = tab.Step(st, ip)
				p.out[d] = policy.Bottom
				accesses++
				continue
			}
			// Evct: a fresh block misses; the table's output is the victim
			// the findEvicted probes would identify, and those
			// associativity-many probes are accounted as a session issues
			// them.
			var v int32
			st, v = tab.Step(st, n)
			p.out[d] = int(v)
			row[v] = freshID(row)
			accesses += 1 + n
		}
		bt.SetState(p.lane, st)
		o.probesN.Add(1)
		o.accessesN.Add(int64(accesses))
	}
	return nil
}

// executeSessions runs every pending lane on a Session: the executor for
// probers without a compiled table.
func (br *batchRun) executeSessions() error {
	o := br.o
	for i := range br.plans {
		p := &br.plans[i]
		br.patch(p)
		if p.lane < 0 {
			continue
		}
		var sess Session
		var err error
		switch {
		case p.resume != nil:
			sess, err = p.resume.Fork()
		case p.srcLane >= 0:
			sess, err = br.parkOf(p.srcLane, p.srcDepth).sess.Fork()
		default:
			sess, err = br.sp.NewSession()
		}
		if err != nil {
			return err
		}
		cc := append([]int32(nil), o.cc0IDs...)
		accesses := 0
		// Fast-forward the known tail: outputs are recorded, so this is
		// pure feeding with no eviction probes.
		for d := 0; d < p.k; d++ {
			b := mapInputID(p.word[d], cc)
			if d >= p.resumeDepth {
				if _, err := sess.Access(blocks.Interned(int(b))); err != nil {
					return err
				}
				accesses++
			}
			if op := p.out[d]; op != policy.Bottom {
				cc[op] = b
			}
		}
		pk := 0
		for d := p.k; ; d++ {
			if pk < len(p.parks) && p.parks[pk].depth == d {
				if p.parks[pk].sess, err = sess.Fork(); err != nil {
					return err
				}
				pk++
			}
			if d == len(p.word) {
				break
			}
			b := mapInputID(p.word[d], cc)
			op, acc, err := stepSession(sess, p.word[d], b, cc)
			accesses += acc
			if err != nil {
				return err
			}
			if op != policy.Bottom {
				cc[op] = b
			}
			p.out[d] = op
		}
		o.probesN.Add(1)
		o.accessesN.Add(int64(accesses))
	}
	return nil
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

// record writes every pending word's outputs into the store and swaps
// surviving placeholders for the sessions their snapshots stand for.
func (br *batchRun) record() {
	o := br.o
	for i := range br.plans {
		p := &br.plans[i]
		if p.lane < 0 {
			continue
		}
		sh := o.out.Acquire(p.word)
		node := int32(0)
		pk := 0
		for d, ip := range p.word {
			node = sh.Extend(node, ip)
			sh.Val(node).out = int16(p.out[d])
			sh.SetHas(node)
			for pk < len(p.parks) && p.parks[pk].depth == d+1 {
				park := p.parks[pk]
				if sh.Val(park.node).sess == park.ph {
					sh.Val(park.node).sess = br.snapshot(park)
				}
				pk++
			}
		}
		sh.Release()
	}
}

// snapshot returns the session a planned park's snapshot stands for: a
// kernel session materialized from its SoA row, or the fork itself.
func (br *batchRun) snapshot(park plannedPark) Session {
	if br.bt == nil {
		return park.sess
	}
	ids := br.bt.Row(park.row)
	content := make([]blocks.Block, len(ids))
	for i, id := range ids {
		content[i] = blocks.Interned(int(id))
	}
	return &kernelSession{tab: br.sp.tab, state: br.bt.State(park.row), content: content}
}

// dropPlaceholders unparks every placeholder of a failed batch, so none
// outlives it. The batch records nothing.
func (br *batchRun) dropPlaceholders() {
	for i := range br.plans {
		p := &br.plans[i]
		if len(p.parks) == 0 {
			continue
		}
		sh := br.o.out.Acquire(p.word)
		for _, park := range p.parks {
			if sh.Val(park.node).sess == park.ph {
				br.o.unpark(sh, park.node)
			}
		}
		sh.Release()
	}
}
