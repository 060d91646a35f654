package polca

// The reset-rooted probe path: how the oracle answers every prober the
// simulator engine does not drive (hardware backends, replica pools,
// remote fleets, fault-injecting wrappers). It is the paper's Algorithm 1
// loop — mapInput → probe → mapOutput, with mapOutput calling findEvicted
// on an Evct — run once per symbol the output store does not know yet.
//
// Every probe of the learn path goes through one memo protocol on the
// block-id probe store: claim (a recorded outcome is a memo hit, an
// execution in flight is joined, otherwise the caller claims the key's
// single-flight slot), execute the claimed probes, settle them (memoize
// and count the successes, free every slot), then wait for the joined
// executions. The access probe of a symbol claims one key; the eviction
// group of an Evct claims its associativity-many keys before executing
// any of them, so a ProbeBatcher receives the whole claimed residue in one
// call. The determinism audit runs the same loop with fresh probes, no
// memo and no re-probes.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// ProbeBatcher is an optional Prober extension executing several
// independent reset-rooted probes in one call — cachequery's replica pool
// and remote fleets implement it by fanning the probes over their
// frontends. The oracle ships the probes an eviction group claims through
// it whenever it claims more than one. Counters are maintained per probe
// exactly as on one-by-one execution; only the error path differs: a
// failing group records none of its claimed probes, where one-by-one
// execution records the probes that succeeded before the first failure.
type ProbeBatcher interface {
	Prober
	ProbeBatch(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error)
}

// inflightProbe is a single-flight slot: the first goroutine to miss the
// memo on a key executes the probe, every concurrent requester of the same
// key waits on done instead of duplicating the (expensive) execution.
type inflightProbe struct {
	done chan struct{}
	oc   cache.Outcome
	err  error
}

// memoProbe is one probe through the block-id probe store.
type memoProbe struct {
	ids  []int32        // probe-store key
	q    []blocks.Block // reset-rooted block sequence
	node int32          // probe-store node of ids
	fl   *inflightProbe // joined execution, or this caller's claim when own
	own  bool
}

// flights hands out the single-flight records of one claim pass, allocated
// on the first claim: every claim of the pass shares one done channel,
// which the caller closes once all of them are settled.
type flights struct {
	max  int // claims the pass can make
	recs []inflightProbe
	done chan struct{}
}

func (f *flights) next() *inflightProbe {
	if f.done == nil {
		f.recs = make([]inflightProbe, 0, f.max)
		f.done = make(chan struct{})
	}
	f.recs = append(f.recs, inflightProbe{done: f.done})
	return &f.recs[len(f.recs)-1]
}

// errUnexecuted releases a claim whose group stopped before executing it.
// Its joiners execute the probe themselves; it never reaches a caller.
var errUnexecuted = errors.New("polca: claimed probe released unexecuted")

// claim walks p's key in the probe store: a recorded outcome is returned
// as a memo hit (p.fl stays nil); an execution in flight is joined; and
// otherwise p claims the key's single-flight slot with a record from fl
// (p.own) and must be settled.
func (o *Oracle) claim(p *memoProbe, fl *flights) cache.Outcome {
	sh := o.pt.Acquire(p.ids)
	defer sh.Release()
	p.node = sh.Ensure(p.ids)
	v := sh.Val(p.node)
	switch {
	case sh.Has(p.node):
		o.memoHits.Add(1)
		return v.oc
	case v.fl != nil:
		p.fl = v.fl
	default:
		p.fl, p.own = fl.next(), true
		v.fl = p.fl
	}
	return cache.Miss
}

// settle publishes the execution of a claimed probe: a success is
// memoized and counted, and the slot is freed either way. Joiners wake
// when the claim pass closes its done channel.
func (o *Oracle) settle(p *memoProbe, oc cache.Outcome, err error) {
	p.fl.oc, p.fl.err = oc, err
	sh := o.pt.Acquire(p.ids)
	sh.Val(p.node).fl = nil
	if err == nil {
		o.probesN.Add(1)
		o.accessesN.Add(int64(len(p.q)))
		sh.Put(p.node, probeVal{oc: oc})
	}
	sh.Release()
}

// join waits for the execution p joined; its answer counts as a memo hit.
func (o *Oracle) join(ctx context.Context, p *memoProbe) (cache.Outcome, error) {
	<-p.fl.done
	switch {
	case p.fl.err == errUnexecuted:
		return o.probe(ctx, p.q, p.ids)
	case p.fl.err != nil:
		return cache.Miss, p.fl.err
	}
	o.memoHits.Add(1)
	return p.fl.oc, nil
}

// probe issues one memoized reset-rooted probe: ids carries q as dense
// block indices, so the memo key is a trie path, not an allocated string.
// The shard stays locked only around the memo bookkeeping; parallel batch
// goroutines that miss the memo on the same key (words sharing an input
// prefix probe identical block sequences) wait for one execution instead
// of duplicating it.
func (o *Oracle) probe(ctx context.Context, q []blocks.Block, ids []int32) (cache.Outcome, error) {
	p := memoProbe{ids: ids, q: q}
	fl := flights{max: 1}
	oc := o.claim(&p, &fl)
	switch {
	case p.fl == nil:
		return oc, nil
	case !p.own:
		return o.join(ctx, &p)
	}
	oc, err := o.executeProbe(ctx, q, false)
	o.settle(&p, oc, err)
	close(fl.done)
	return oc, err
}

// probeGroup answers the probes of g into ocs through the memo protocol:
// it claims every key first, executes and settles only the claimed probes
// (executeGroup), and then waits for the executions it joined.
func (o *Oracle) probeGroup(ctx context.Context, g []memoProbe, ocs []cache.Outcome) error {
	fl := flights{max: len(g)}
	claimed := 0
	for i := range g {
		if ocs[i] = o.claim(&g[i], &fl); g[i].own {
			claimed++
		}
	}
	var err error
	if claimed > 0 {
		err = o.executeGroup(ctx, g, ocs, claimed)
		close(fl.done)
	}
	for i := range g {
		if g[i].fl == nil || g[i].own {
			continue
		}
		oc, jerr := o.join(ctx, &g[i])
		if jerr != nil && err == nil {
			err = jerr
		}
		ocs[i] = oc
	}
	return err
}

// executeGroup executes and settles the claimed members of g, writing
// their outcomes to ocs. A ProbeBatcher gets one ProbeBatch call when more
// than one member is claimed. Otherwise the members run through
// executeProbe one by one in group order, stopping at the first failure or
// at the group's second miss, which already fails the victim check: the
// re-measure pass probes every member again. Claims left unexecuted are
// released unrecorded.
func (o *Oracle) executeGroup(ctx context.Context, g []memoProbe, ocs []cache.Outcome, claimed int) error {
	if bpr, ok := o.prober.(ProbeBatcher); ok && claimed > 1 {
		qs := make([][]blocks.Block, 0, claimed)
		for i := range g {
			if g[i].own {
				qs = append(qs, g[i].q)
			}
		}
		res, err := o.executeProbeBatch(ctx, bpr, qs)
		for i := range g {
			if g[i].own {
				if err == nil {
					ocs[i], res = res[0], res[1:]
				}
				o.settle(&g[i], ocs[i], err)
			}
		}
		return err
	}
	var err error
	misses := 0
	for i := range g {
		switch {
		case !g[i].own:
			if g[i].fl == nil && ocs[i] == cache.Miss {
				misses++
			}
			continue
		case err != nil || misses > 1:
			o.settle(&g[i], cache.Miss, errUnexecuted)
			continue
		}
		ocs[i], err = o.executeProbe(ctx, g[i].q, false)
		if err == nil && ocs[i] == cache.Miss {
			misses++
		}
		o.settle(&g[i], ocs[i], err)
	}
	return err
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
	sh.Put(sh.Ensure(ids), probeVal{oc: oc})
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

// executeProbeBatch is executeProbe over a group of probes: the retry
// policy wraps each ProbeBatch call, and WithProbeVotes re-issues the group
// and majority-votes every probe.
func (o *Oracle) executeProbeBatch(ctx context.Context, bpr ProbeBatcher, qs [][]blocks.Block) ([]cache.Outcome, error) {
	var res []cache.Outcome
	batch := func() (cache.Outcome, error) {
		var err error
		res, err = bpr.ProbeBatch(ctx, qs)
		return cache.Miss, err
	}
	if o.votes <= 1 {
		if _, err := o.retry.Do(ctx, &o.retriesN, batch); err != nil {
			return nil, err
		}
		return res, nil
	}
	hits := make([]int, len(qs))
	for v := 0; v < o.votes; v++ {
		if _, err := o.retry.Do(ctx, &o.retriesN, batch); err != nil {
			return nil, err
		}
		for i, oc := range res {
			if oc == cache.Hit {
				hits[i]++
			}
		}
	}
	out := make([]cache.Outcome, len(qs))
	for i, h := range hits {
		out[i] = o.tally(h)
	}
	return out, nil
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
	// A recorded symbol spares the probes this path would issue for it:
	// the access, plus n eviction probes for an Evct (a symbol with a
	// victim). Counting those keeps
	// MemoHits independent of whether a concurrent word sharing the prefix
	// recorded it first or is still probing it.
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

// findEvicted identifies the line an Evct's miss displaced: one probe per
// tracked line re-accesses that line's block after ic, and exactly one of
// them must miss. Outside the audit the group runs through the memo
// protocol (probeGroup), and an inconsistent group — at least one of its
// probes is wrong — is re-measured member by member once before the
// victim check declares nondeterminism.
//
// The group allocates per group, not per probe: the probe keys and block
// sequences are carved from one backing array each. Nothing is reused
// across groups, because a prober may still hold a batch's slices after
// it returns (a remote fleet's losing hedge).
func (o *Oracle) findEvicted(ctx context.Context, ic []int32, icN []blocks.Block, cc []int32, audit bool) (int, error) {
	n, m := len(cc), len(ic)+1
	pidBuf := make([]int32, n*m)
	qBuf := make([]blocks.Block, n*m)
	g := make([]memoProbe, n)
	ocs := make([]cache.Outcome, n)
	for i := range g {
		p := &g[i]
		p.ids = pidBuf[i*m : (i+1)*m : (i+1)*m]
		copy(p.ids, ic)
		p.ids[m-1] = cc[i]
		p.q = qBuf[i*m : (i+1)*m : (i+1)*m]
		copy(p.q, icN)
		p.q[m-1] = blocks.Interned(int(cc[i]))
	}
	if audit {
		for i := range g {
			oc, err := o.freshProbe(ctx, g[i].q)
			if err != nil {
				return 0, err
			}
			ocs[i] = oc
		}
		return victim(ocs, cc)
	}
	if err := o.probeGroup(ctx, g, ocs); err != nil {
		return 0, err
	}
	evicted, err := victim(ocs, cc)
	if err != nil {
		for i := range g {
			if ocs[i], err = o.reprobe(ctx, g[i].q, g[i].ids); err != nil {
				return 0, err
			}
		}
		evicted, err = victim(ocs, cc)
	}
	return evicted, err
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
