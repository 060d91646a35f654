package polca

// The reset-rooted probe path: how the oracle answers every prober the
// simulator engine does not drive (hardware backends, replica pools,
// fault-injecting wrappers). It is the paper's Algorithm 1 loop — mapInput
// → probe → mapOutput, with mapOutput calling findEvicted on an Evct — run
// once per symbol the output store does not know yet.
//
// Every execution of the learn path goes through one single-flight memo
// protocol on the block-id probe store: a recorded answer is a memo hit,
// an execution in flight is joined, and otherwise the caller claims the
// node's slot, executes, records the answer and wakes the joiners. The
// access probe of a symbol claims the node of its key. The eviction group
// of an Evct claims the node of the Evct's prefix as one unit and records
// its victim there. A group needs at most two suffix-profiled runs, not
// one probe per cached line: a hit never changes a set's content
// (Definition 2.3), so each answer of the run prefix · c1 … cn up to and
// including its first miss is the answer of the single probe prefix · ci,
// and a second run prefix · c(f+1) … cn settles the lines after a first
// miss at cf. Every answer is memoized under its single-probe key, where
// the later Ln access probes of the word find it. A group with no victim
// or two is re-measured member by member before the victim check declares
// nondeterminism. The determinism audit probes every member fresh, with
// no memo and no re-measure, so it checks the runs against the paper's
// single probes.

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// inflightProbe is a single-flight slot: the first goroutine to miss the
// memo at a probe-store node executes, and every concurrent requester of
// the same node waits on done instead of duplicating the (expensive)
// execution. The node of an Evct's prefix hosts two executions in turn:
// the Evct's access probe while the node holds no outcome, then the
// eviction group, which is only claimed once the access has answered.
type inflightProbe struct {
	done   chan struct{}
	oc     cache.Outcome // access probe answer
	victim int           // eviction group answer
	err    error
}

// claimNode looks up the probe-store node of key under its shard lock.
// The recorded answer of an eviction group (group) is the node's victim,
// that of a probe its outcome; a recorded answer comes back in val with a
// nil fl. Otherwise the caller joins the execution in flight (fl, own
// false) or claims the node's slot (fl, own true) and must publish.
func (o *Oracle) claimNode(key []int32, group bool) (node int32, val probeVal, fl *inflightProbe, own bool) {
	sh := o.pt.Acquire(key)
	defer sh.Release()
	node = sh.Ensure(key)
	v := sh.Val(node)
	switch {
	case group && v.victim > 0, !group && sh.Has(node):
		return node, *v, nil, false
	case v.fl != nil:
		return node, *v, v.fl, false
	}
	v.fl = &inflightProbe{done: make(chan struct{})}
	return node, *v, v.fl, true
}

// publish frees the slot fl of node, records a successful execution's
// answer and wakes the joiners.
func (o *Oracle) publish(key []int32, node int32, fl *inflightProbe, group bool) {
	sh := o.pt.Acquire(key)
	v := sh.Val(node)
	v.fl = nil
	switch {
	case fl.err != nil:
	case group:
		v.victim = int8(fl.victim + 1)
	default:
		recordOutcome(sh, node, fl.oc)
	}
	sh.Release()
	close(fl.done)
}

// await waits for the execution fl joined. A joined answer counts as hits
// memo hits.
func (o *Oracle) await(fl *inflightProbe, hits int) error {
	<-fl.done
	if fl.err == nil {
		o.memoHits.Add(int64(hits))
	}
	return fl.err
}

// recordOutcome memoizes oc at node, leaving any single-flight slot or
// victim the node holds in place.
func recordOutcome(sh *probeShard, node int32, oc cache.Outcome) {
	sh.Val(node).oc = oc
	sh.SetHas(node)
}

// probe issues one memoized reset-rooted probe: ids carries q as dense
// block indices, so the memo key is a trie path, not an allocated string.
// Parallel batch goroutines that miss the memo on the same key (words
// sharing an input prefix probe identical block sequences) wait for one
// execution instead of duplicating it.
func (o *Oracle) probe(ctx context.Context, q []blocks.Block, ids []int32) (cache.Outcome, error) {
	node, v, fl, own := o.claimNode(ids, false)
	switch {
	case fl == nil:
		o.memoHits.Add(1)
		return v.oc, nil
	case !own:
		if err := o.await(fl, 1); err != nil {
			return cache.Miss, err
		}
		return fl.oc, nil
	}
	if fl.oc, fl.err = o.executeProbe(ctx, q, false); fl.err == nil {
		o.probesN.Add(1)
		o.accessesN.Add(int64(len(q)))
	}
	o.publish(ids, node, fl, false)
	return fl.oc, fl.err
}

// freshProbe is the determinism audit's probe: it bypasses the memo
// entirely AND forces a real execution on cached probing stacks
// (FreshProber) — a cached replay of the first answer would make the audit
// vacuous.
func (o *Oracle) freshProbe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	oc, err := o.executeProbe(ctx, q, true)
	if err != nil {
		return cache.Miss, err
	}
	o.probesN.Add(1)
	o.accessesN.Add(int64(len(q)))
	return oc, nil
}

// reprobe forcibly re-executes a probe whose memoized or just-measured
// outcome failed a consistency check (a cached access that missed, a fresh
// access that hit, an eviction group without exactly one victim). On noisy
// backends such a violation is overwhelmingly a measurement fault that
// slipped past retry and voting, not true nondeterminism — so the outcome
// is re-measured (re-voted) once and the memo corrected before the caller
// decides whether to declare ErrNondeterministic. The re-measurement is
// fresh (FreshProber): a cached probing stack would otherwise replay the
// suspect answer it stored. Every such re-measurement is counted in
// Stats.Reprobes.
func (o *Oracle) reprobe(ctx context.Context, q []blocks.Block, ids []int32) (cache.Outcome, error) {
	oc, err := o.freshProbe(ctx, q)
	if err != nil {
		return cache.Miss, err
	}
	o.reprobesN.Add(1)
	sh := o.pt.Acquire(ids)
	recordOutcome(sh, sh.Ensure(ids), oc)
	sh.Release()
	return oc, nil
}

// executeProbe runs one probe on the prober, absorbing transient failures
// through the retry policy and — when WithProbeVotes is set — re-executing
// the probe and majority-voting the outcome to defend against wrong-answer
// flips. Vote disagreements are counted; a probe whose executions split
// evenly is decided by the majority count (strictly more than half of the
// votes cast), which exists because vote counts are chosen odd by callers.
func (o *Oracle) executeProbe(ctx context.Context, q []blocks.Block, fresh bool) (cache.Outcome, error) {
	if o.votes <= 1 {
		return o.retryProbe(ctx, q, fresh)
	}
	hits := 0
	for v := 0; v < o.votes; v++ {
		oc, err := o.retryProbe(ctx, q, fresh)
		if err != nil {
			return cache.Miss, err
		}
		if oc == cache.Hit {
			hits++
		}
	}
	return o.tally(hits), nil
}

// executeTrace executes one run of an eviction group: q with its last k
// accesses profiled. The retry policy wraps each ProbeTrace call, and
// WithProbeVotes re-issues the run and majority-votes every profiled
// position. A run counts as one probe of len(q) accesses.
func (o *Oracle) executeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	var res []cache.Outcome
	run := func() (cache.Outcome, error) {
		var err error
		if res, err = o.prober.ProbeTrace(ctx, q, k); err == nil && len(res) != k {
			err = fmt.Errorf("polca: prober answered %d outcomes for %d profiled accesses", len(res), k)
		}
		return cache.Miss, err
	}
	var hits []int
	if o.votes > 1 {
		hits = make([]int, k)
	}
	for v := 0; v < o.votes; v++ {
		if _, err := o.retry.Do(ctx, &o.retriesN, run); err != nil {
			return nil, err
		}
		if hits == nil {
			continue
		}
		for i, oc := range res {
			if oc == cache.Hit {
				hits[i]++
			}
		}
	}
	for i, h := range hits {
		res[i] = o.tally(h)
	}
	o.probesN.Add(1)
	o.accessesN.Add(int64(len(q)))
	return res, nil
}

// tally turns the hit count of o.votes executions into the majority
// outcome, counting a split vote as a disagreement.
func (o *Oracle) tally(hits int) cache.Outcome {
	if hits != 0 && hits != o.votes {
		o.disagreeN.Add(1)
	}
	if hits*2 > o.votes {
		return cache.Hit
	}
	return cache.Miss
}

// retryProbe is one voted execution: the raw probe wrapped in the
// exponential-backoff retry loop of retry.go.
func (o *Oracle) retryProbe(ctx context.Context, q []blocks.Block, fresh bool) (cache.Outcome, error) {
	return o.retry.Do(ctx, &o.retriesN, func() (cache.Outcome, error) {
		return o.rawProbe(ctx, q, fresh)
	})
}

// rawProbe runs one probe on the prober, through ProbeFresh when the audit
// demands an uncached execution and the prober supports it.
func (o *Oracle) rawProbe(ctx context.Context, q []blocks.Block, fresh bool) (cache.Outcome, error) {
	if fresh {
		if fp, ok := o.prober.(FreshProber); ok {
			return fp.ProbeFresh(ctx, q)
		}
	}
	return o.prober.Probe(ctx, q)
}

// probesQueryTrie answers one output query over reset-rooted probes. The
// prefix recorded in the output store costs no probe: it is walked under
// the word's shard lock, evolving the tracked content cc and the blocks
// fed. The remaining symbols run through probeSuffix, and their outputs
// are recorded.
func (o *Oracle) probesQueryTrie(ctx context.Context, word []int) ([]int, error) {
	n := o.prober.Assoc()
	out := make([]int, len(word))
	cc := append([]int32(nil), o.cc0IDs...)
	fed := make([]int32, 0, len(word))
	// A recorded symbol spares the answers this path would look up for it:
	// the access, plus the n member answers of an Evct's eviction group (a
	// symbol with a victim). Counting those keeps MemoHits independent of
	// whether a concurrent word sharing the prefix recorded it first or is
	// still probing it.
	spared := 0
	sh := o.out.Acquire(word)
	k, node := 0, int32(0)
	for ; k < len(word); k++ {
		c := sh.Child(node, word[k])
		if c < 0 || !sh.Has(c) {
			break
		}
		b := mapInputID(word[k], cc)
		if out[k] = int(sh.Val(c).out); out[k] != policy.Bottom {
			cc[out[k]] = b
			spared += n
		}
		fed = append(fed, b)
		spared++
		node = c
	}
	sh.Release()
	o.memoHits.Add(int64(spared))
	if k == len(word) {
		return out, nil
	}
	if err := o.probeSuffix(ctx, word, k, out, cc, fed, false); err != nil {
		return nil, err
	}
	sh = o.out.Acquire(word)
	node = 0
	for d, ip := range word {
		node = sh.Extend(node, ip)
		sh.Val(node).out = int16(out[d])
		sh.SetHas(node)
	}
	sh.Release()
	return out, nil
}

// outputQueryProbes is the determinism audit's re-execution of word: the
// Algorithm 1 loop over fresh reset-rooted probes, which every prober
// implements. No memo, no re-probing — an inconsistency here is exactly
// what the audit exists to catch.
func (o *Oracle) outputQueryProbes(ctx context.Context, word []int) ([]int, error) {
	out := make([]int, len(word))
	cc := append([]int32(nil), o.cc0IDs...)
	if err := o.probeSuffix(ctx, word, 0, out, cc, make([]int32, 0, len(word)), true); err != nil {
		return nil, err
	}
	return out, nil
}

// probeSuffix runs the Algorithm 1 loop for word[k:]: ic holds the blocks
// fed for word[:k], and cc the content they leave. The learn path probes
// through the memo; the audit probes fresh.
func (o *Oracle) probeSuffix(ctx context.Context, word []int, k int, out []int, cc, ic []int32, audit bool) error {
	icN := make([]blocks.Block, len(ic), len(word))
	for i, b := range ic {
		icN[i] = blocks.Interned(int(b))
	}
	for i := k; i < len(word); i++ {
		ip := word[i]
		b := mapInputID(ip, cc)
		ic = append(ic, b)
		icN = append(icN, blocks.Interned(int(b)))
		var oc cache.Outcome
		var err error
		if audit {
			oc, err = o.freshProbe(ctx, icN)
		} else {
			oc, err = o.probe(ctx, icN, ic)
		}
		if err != nil {
			return err
		}
		op, err := o.mapOutput(ctx, ip, oc, ic, icN, cc, audit)
		if err != nil {
			return err
		}
		if op != policy.Bottom {
			cc[op] = b
		}
		out[i] = op
	}
	return nil
}

// mapOutput maps the outcome oc of the last block of ic, fed for input ip,
// back to a policy output: Bottom for Ln(i), and for Evct the victim
// findEvicted identifies among the tracked content cc. Outside the audit a
// failed consistency check is first re-measured (correcting the memo)
// before it declares nondeterminism.
func (o *Oracle) mapOutput(ctx context.Context, ip int, oc cache.Outcome, ic []int32, icN []blocks.Block, cc []int32, audit bool) (int, error) {
	n := len(cc)
	b := ic[len(ic)-1]
	err := checkAccess(ip, n, oc, b)
	if err != nil && !audit {
		if oc, err = o.reprobe(ctx, icN, ic); err != nil {
			return 0, err
		}
		err = checkAccess(ip, n, oc, b)
	}
	if err != nil {
		return 0, err
	}
	if ip < n {
		return policy.Bottom, nil
	}
	return o.findEvicted(ctx, ic, icN, cc, audit)
}

// findEvicted identifies the line an Evct's miss displaced: re-accessing
// the tracked lines cc after ic, exactly one of them must miss. The audit
// probes each line fresh, one probe per line as in Algorithm 1. Outside
// the audit the group is one single-flight unit at the probe-store node
// of ic, which records its victim: a recorded or joined group is answered
// without executing, and a claimed one executes through runGroup.
func (o *Oracle) findEvicted(ctx context.Context, ic []int32, icN []blocks.Block, cc []int32, audit bool) (int, error) {
	if audit {
		_, qs := memberProbes(ic, icN, cc)
		ocs := make([]cache.Outcome, len(cc))
		for i, q := range qs {
			oc, err := o.freshProbe(ctx, q)
			if err != nil {
				return 0, err
			}
			ocs[i] = oc
		}
		return victim(ocs, cc)
	}
	node, v, fl, own := o.claimNode(ic, true)
	switch {
	case fl == nil:
		o.memoHits.Add(int64(len(cc)))
		return int(v.victim) - 1, nil
	case !own:
		if err := o.await(fl, len(cc)); err != nil {
			return 0, err
		}
		return fl.victim, nil
	}
	fl.victim, fl.err = o.runGroup(ctx, ic, icN, cc)
	o.publish(ic, node, fl, true)
	return fl.victim, fl.err
}

// runGroup executes the eviction group of ic in at most two runs. Run 1
// re-accesses every line of cc in line order; when its first miss is not
// its last access, run 2 re-accesses the lines after that miss straight
// after ic. Only a run's answers up to and including its first miss are
// single-probe answers, so a group is consistent only when run 2 (if any)
// has no miss and run 1 has one. A consistent group memoizes every member
// answer under its single-probe key ic · cc[i]; any other group has each
// member re-measured once (reprobe) before the victim check declares
// nondeterminism.
func (o *Oracle) runGroup(ctx context.Context, ic []int32, icN []blocks.Block, cc []int32) (int, error) {
	n, m := len(cc), len(icN)
	q := make([]blocks.Block, m+n)
	copy(q, icN)
	for i, c := range cc {
		q[m+i] = blocks.Interned(int(c))
	}
	ocs, err := o.executeTrace(ctx, q, n)
	if err != nil {
		return 0, err
	}
	if f := slices.Index(ocs, cache.Miss); f >= 0 && f < n-1 {
		rest, err := o.executeTrace(ctx, append(q[:m:m], q[m+f+1:]...), n-f-1)
		if err != nil {
			return 0, err
		}
		copy(ocs[f+1:], rest)
	}
	evicted, err := victim(ocs, cc)
	if err == nil {
		sh := o.pt.Acquire(ic)
		base := sh.Ensure(ic)
		for i, c := range cc {
			recordOutcome(sh, sh.Extend(base, c), ocs[i])
		}
		sh.Release()
		return evicted, nil
	}
	ids, qs := memberProbes(ic, icN, cc)
	for i := range cc {
		if ocs[i], err = o.reprobe(ctx, qs[i], ids[i]); err != nil {
			return 0, err
		}
	}
	return victim(ocs, cc)
}

// memberProbes returns the single probes of a group: the keys ic · cc[i]
// and the block sequences icN · cc[i], carved from one backing array
// each. No two share storage: the Prober contract does not promise that a
// prober is done with a probe's slice when the call returns.
func memberProbes(ic []int32, icN []blocks.Block, cc []int32) ([][]int32, [][]blocks.Block) {
	n, m := len(cc), len(ic)+1
	idBuf := make([]int32, n*m)
	qBuf := make([]blocks.Block, n*m)
	ids := make([][]int32, n)
	qs := make([][]blocks.Block, n)
	for i, c := range cc {
		ids[i] = idBuf[i*m : (i+1)*m : (i+1)*m]
		copy(ids[i], ic)
		ids[i][m-1] = c
		qs[i] = qBuf[i*m : (i+1)*m : (i+1)*m]
		copy(qs[i], icN)
		qs[i][m-1] = blocks.Interned(int(c))
	}
	return ids, qs
}

// checkAccess is the consistency check of feeding block b for input ip:
// Ln(i) feeds a cached block, which must hit; Evct feeds a fresh block,
// which must miss.
func checkAccess(ip, n int, oc cache.Outcome, b int32) error {
	switch {
	case ip < n && oc != cache.Hit:
		return fmt.Errorf("%w: access to cached block %s missed", ErrNondeterministic, blocks.Interned(int(b)))
	case ip == n && oc != cache.Miss:
		return fmt.Errorf("%w: access to fresh block %s hit", ErrNondeterministic, blocks.Interned(int(b)))
	}
	return nil
}

// victim returns the one line whose eviction probe missed: a miss
// displaces exactly one resident block, so no miss or several misses among
// the outcomes ocs of the lines cc mean nondeterminism.
func victim(ocs []cache.Outcome, cc []int32) (int, error) {
	evicted := -1
	for i, oc := range ocs {
		if oc != cache.Miss {
			continue
		}
		if evicted != -1 {
			return 0, fmt.Errorf("%w: blocks %s and %s both evicted by one miss",
				ErrNondeterministic, blocks.Interned(int(cc[evicted])), blocks.Interned(int(cc[i])))
		}
		evicted = i
	}
	if evicted == -1 {
		return 0, fmt.Errorf("%w: no resident block evicted by a miss", ErrNondeterministic)
	}
	return evicted, nil
}
