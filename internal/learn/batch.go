package learn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/qstore"
)

// BatchTeacher is an optional Teacher extension for teachers that can answer
// several independent output queries at once — on parallel goroutines, over
// replicated hardware interfaces, or by any other means. The learner detects
// it and dispatches its observation-table rows and conformance-suite words in
// batches instead of one query at a time.
//
// Answers[i] must be the output word of words[i]; the batch carries no
// ordering constraint between words, which is what makes CacheQuery-style
// learning embarrassingly parallel: every membership query starts from the
// cache's reset state.
type BatchTeacher interface {
	Teacher
	// OutputQueryBatch answers len(words) independent output queries.
	OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error)
}

// BatchHinter is an optional BatchTeacher refinement advertising how many
// queries the teacher can usefully answer concurrently. The learner scales
// its prefetch chunks to the hint — in particular, a hint of 1 (no real
// parallelism available) keeps the learning loop exactly serial, paying no
// speculative queries. The hint is about useful batch width, not goroutine
// count: a teacher answering batches in one pass on one core — a
// simulator-backed polca.Oracle — reports a constant width so chunks form
// even where goroutine fan-out would not pay.
type BatchHinter interface {
	BatchHint() int
}

// QueryAll answers every word through t, using one OutputQueryBatch call when
// t implements BatchTeacher and a serial loop otherwise. It is the helper
// non-learner clients (cmd/genmodels, experiments) use to stay batch-aware
// without duplicating the dispatch logic.
func QueryAll(ctx context.Context, t Teacher, words [][]int) ([][]int, error) {
	if bt, ok := t.(BatchTeacher); ok && len(words) > 1 {
		return bt.OutputQueryBatch(ctx, words)
	}
	out := make([][]int, len(words))
	for i, w := range words {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o, err := t.OutputQuery(ctx, w)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// PoolTeacher wraps a plain Teacher with a fixed worker pool and a
// lock-striped query cache, turning it into a BatchTeacher. The cache is
// shared across all learning rounds (and across concurrent callers): a word
// that has been answered once is never asked again. It is a synchronized
// qstore instance sharded by first input symbol, so concurrent callers
// touching different subtrees never contend on one lock.
//
// When Workers > 1 the wrapped teacher must be safe for concurrent
// OutputQuery calls — polca.Oracle over a forking (software-simulated) prober
// and cachequery.ParallelProber-backed oracles are; a bare hardware prober is
// not, so wrap the replicated prober, not the raw one.
type PoolTeacher struct {
	inner   Teacher
	workers int

	// cache is exact-match by design: CachedWords must keep counting words
	// the wrapped teacher actually answered (prefix sharing happens
	// upstream, in the learner's own memo). Answers live at terminal nodes.
	cache  *qstore.Store[int, []int]
	stored atomic.Int64
}

// NewPoolTeacher builds a worker-pool adapter over t. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewPoolTeacher(t Teacher, workers int) *PoolTeacher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &PoolTeacher{inner: t, workers: workers,
		cache: qstore.New[int, []int](qstore.Options{
			Degree:  t.NumInputs(),
			Stripes: t.NumInputs(),
			Sync:    true,
		})}
}

// NumInputs implements Teacher.
func (p *PoolTeacher) NumInputs() int { return p.inner.NumInputs() }

// Workers returns the pool width.
func (p *PoolTeacher) Workers() int { return p.workers }

// BatchHint implements BatchHinter: the pool width, or the inner teacher's
// own hint when it is the larger of the two.
func (p *PoolTeacher) BatchHint() int {
	h := p.workers
	if bh, ok := p.inner.(BatchHinter); ok && bh.BatchHint() > h {
		h = bh.BatchHint()
	}
	return h
}

// CachedWords returns the number of distinct words answered so far.
func (p *PoolTeacher) CachedWords() int { return int(p.stored.Load()) }

// store records an answer.
func (p *PoolTeacher) store(w, out []int) {
	if p.cache.Set(w, out) {
		p.stored.Add(1)
	}
}

// OutputQuery implements Teacher, consulting the shared cache first.
func (p *PoolTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if !p.cache.InRange(word) {
		// An out-of-alphabet word has no trie path; let the wrapped
		// teacher answer (or reject) it directly, uncached.
		return p.inner.OutputQuery(ctx, word)
	}
	if out, ok := p.cache.Get(word); ok {
		return out, nil
	}
	out, err := p.inner.OutputQuery(ctx, word)
	if err != nil {
		return nil, err
	}
	p.store(word, out)
	return out, nil
}

// OutputQueryBatch implements BatchTeacher: cached words are answered
// immediately, the remaining distinct words are fanned out across the worker
// pool, and every fresh answer lands in the shared cache.
func (p *PoolTeacher) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	out := make([][]int, len(words))
	// refs packs each word's (shard, node) pair: shard-local node ids are
	// stable, so a ref resolves the same cache slot before and after the
	// dispatch without re-walking the word.
	refs := make([]int64, len(words))

	// Resolve cache hits and dedupe the misses by cache node, keeping
	// first-occurrence order so the dispatch (and any teacher-side error)
	// is deterministic for a deterministic inner teacher.
	var pending []int // indices into words of the first occurrence of each miss
	firstAt := make(map[int64]int)
	for i, w := range words {
		if !p.cache.InRange(w) {
			// No trie path for an out-of-alphabet word: dispatch it to the
			// wrapped teacher uncached (it answers or rejects it itself).
			refs[i] = -1
			pending = append(pending, i)
			continue
		}
		sh := p.cache.Acquire(w)
		n := sh.Ensure(w)
		known := sh.Has(n)
		sh.Release()
		refs[i] = int64(sh.Index())<<32 | int64(n)
		if _, seen := firstAt[refs[i]]; seen {
			continue
		}
		firstAt[refs[i]] = i
		if !known {
			pending = append(pending, i)
		}
	}

	if len(pending) > 0 {
		errs := make([]error, len(pending))
		fresh := make([][]int, len(pending))
		workers := p.workers
		if workers > len(pending) {
			workers = len(pending)
		}
		if bi, ok := p.inner.(BatchTeacher); ok {
			// The inner teacher manages its own concurrency; hand it the
			// whole miss set in one call.
			ws := make([][]int, len(pending))
			for j, i := range pending {
				ws[j] = words[i]
			}
			ans, err := bi.OutputQueryBatch(ctx, ws)
			if err != nil {
				return nil, err
			}
			copy(fresh, ans)
		} else if workers <= 1 {
			for j, i := range pending {
				fresh[j], errs[j] = p.inner.OutputQuery(ctx, words[i])
			}
		} else {
			var wg sync.WaitGroup
			next := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range next {
						// On cancel, drain the remaining indices without
						// querying so the feeder never blocks and every
						// worker exits through the channel close.
						if err := ctx.Err(); err != nil {
							errs[j] = err
							continue
						}
						fresh[j], errs[j] = p.inner.OutputQuery(ctx, words[pending[j]])
					}
				}()
			}
			for j := range pending {
				next <- j
			}
			close(next)
			wg.Wait()
		}
		for j, i := range pending {
			if errs[j] != nil {
				return nil, errs[j]
			}
			if len(fresh[j]) != len(words[i]) {
				return nil, fmt.Errorf("learn: teacher returned %d outputs for %d inputs", len(fresh[j]), len(words[i]))
			}
			if refs[i] < 0 {
				out[i] = fresh[j]
				continue
			}
			sh := p.cache.Acquire(words[i])
			if sh.Put(int32(refs[i]&0x7fffffff), fresh[j]) {
				p.stored.Add(1)
			}
			sh.Release()
		}
	}

	for i := range words {
		if refs[i] < 0 {
			continue // out-of-alphabet word, answered above
		}
		sh := p.cache.Acquire(words[i])
		n := int32(refs[i] & 0x7fffffff)
		var ans []int
		if sh.Has(n) {
			ans = *sh.Val(n)
		}
		sh.Release()
		if ans == nil {
			return nil, fmt.Errorf("learn: batch answer for %v missing", words[i])
		}
		out[i] = ans
	}
	return out, nil
}

var _ BatchTeacher = (*PoolTeacher)(nil)
