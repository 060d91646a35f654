package cachequery

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/mbl"
	"repro/internal/qstore"
)

// QueryResult is the outcome of one expanded query: the hit/miss value of
// every '?'-profiled access.
type QueryResult struct {
	Query    mbl.Query
	Outcomes []cache.Outcome
}

// Pattern renders the outcomes like the tool's traces, e.g. "Hit Miss".
func (r QueryResult) Pattern() string {
	parts := make([]string, len(r.Outcomes))
	for i, o := range r.Outcomes {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// FrontendStats counts query-cache effectiveness and backend work, the
// quantities behind the paper's §7.2 cost analysis.
type FrontendStats struct {
	Expanded     int           // queries after MBL expansion
	Executed     int           // queries actually run on the backend
	Repetitions  int           // repetitions the backend ran for them, escalations included
	CacheHits    int           // queries answered from the result cache
	Inconclusive int           // vote ties retried with escalated repetitions
	Duration     time.Duration // cumulative backend execution time
}

// Add accumulates another frontend's counters (used to aggregate the
// replicas of a parallel prober into one report).
func (s *FrontendStats) Add(o FrontendStats) {
	s.Expanded += o.Expanded
	s.Executed += o.Executed
	s.Repetitions += o.Repetitions
	s.CacheHits += o.CacheHits
	s.Inconclusive += o.Inconclusive
	s.Duration += o.Duration
}

// Frontend expands MBL expressions, routes them to per-set backends, and
// caches results — the Python frontend plus LevelDB layer of the real tool.
// A frontend drives one CPU and is not safe for concurrent use; concurrency
// comes from pooling several frontends behind a ParallelProber. The result
// cache is per frontend and unsynchronized; learning leaves it off, since
// the oracle's probe memo answers every repeated probe first.
type Frontend struct {
	cpu      *hw.CPU
	opt      BackendOptions
	backends map[Target]*Backend
	results  *qstore.Store[int32, string] // result cache; nil when off
	keyBuf   []int32                      // scratch for result keys (frontends are serial)
	stats    FrontendStats
}

// NewFrontend builds a frontend over a simulated CPU with result caching
// enabled.
func NewFrontend(cpu *hw.CPU, opt BackendOptions) *Frontend {
	f := &Frontend{cpu: cpu, opt: opt, backends: make(map[Target]*Backend)}
	f.SetResultCache(true)
	return f
}

// SetResultCache toggles the query-result cache (the LevelDB role).
// Turning it off drops the cached results.
func (f *Frontend) SetResultCache(on bool) {
	switch {
	case !on:
		f.results = nil
	case f.results == nil:
		f.results = qstore.New[int32, string](qstore.Options{})
	}
}

// Stats returns a copy of the accumulated counters.
func (f *Frontend) Stats() FrontendStats { return f.stats }

// CPU exposes the underlying processor.
func (f *Frontend) CPU() *hw.CPU { return f.cpu }

// Backend returns (provisioning on demand) the backend for a target set.
func (f *Frontend) Backend(tgt Target) (*Backend, error) {
	if be, ok := f.backends[tgt]; ok {
		return be, nil
	}
	be, err := NewBackend(f.cpu, tgt, f.opt)
	if err != nil {
		return nil, err
	}
	f.backends[tgt] = be
	return be, nil
}

// storeKey encodes one query as the integer key sequence the result cache
// indexes by: a flush flag, the target coordinates, and one interned code
// per operation (dense block id fused with the tag). It fails only on a
// malformed block name, which the backend would reject anyway — the caller
// then simply bypasses the cache.
func (f *Frontend) storeKey(tgt Target, q mbl.Query, flushFirst bool) ([]int32, error) {
	k := f.keyBuf[:0]
	flush := int32(0)
	if flushFirst {
		flush = 1
	}
	k = append(k, flush, int32(tgt.Level), int32(tgt.Slice), int32(tgt.Set))
	for _, op := range q {
		id, err := blocks.Index(op.Block)
		if err != nil {
			return nil, err
		}
		var tag int32
		switch op.Tag {
		case mbl.TagProfile:
			tag = 1
		case mbl.TagFlush:
			tag = 2
		}
		// id <= blocks.MaxIndex, so the fused code cannot overflow int32
		// and distinct (id, tag) pairs never collide.
		k = append(k, int32(id)*3+tag)
	}
	f.keyBuf = k
	return k, nil
}

func encodeOutcomes(ocs []cache.Outcome) string {
	var sb strings.Builder
	for _, o := range ocs {
		if o == cache.Hit {
			sb.WriteByte('H')
		} else {
			sb.WriteByte('M')
		}
	}
	return sb.String()
}

func decodeOutcomes(s string) []cache.Outcome {
	out := make([]cache.Outcome, len(s))
	for i := range s {
		out[i] = cache.Outcome(s[i] == 'H')
	}
	return out
}

// RunQuery executes one already-expanded query against a target set,
// consulting the result cache first. Like Backend.Run, the outcomes are
// valid until the frontend's next query: callers that keep them copy them.
func (f *Frontend) RunQuery(ctx context.Context, tgt Target, q mbl.Query, flushFirst bool) ([]cache.Outcome, error) {
	return f.runQuery(ctx, tgt, q, flushFirst, true)
}

// RunQueryFresh executes the query unconditionally, bypassing the result
// cache read (the fresh result still lands in the cache). Polca's
// determinism audit depends on it: a cached read would replay the first
// answer and could never expose nondeterminism.
func (f *Frontend) RunQueryFresh(ctx context.Context, tgt Target, q mbl.Query, flushFirst bool) ([]cache.Outcome, error) {
	return f.runQuery(ctx, tgt, q, flushFirst, false)
}

// inconclusiveEscalations bounds how many times a vote-tied measurement is
// retried with a larger repetition count before the tie propagates.
const inconclusiveEscalations = 2

func (f *Frontend) runQuery(ctx context.Context, tgt Target, q mbl.Query, flushFirst, readCache bool) ([]cache.Outcome, error) {
	var key []int32
	if f.results != nil {
		if k, err := f.storeKey(tgt, q, flushFirst); err == nil {
			key = k
		}
	}
	if key != nil && readCache {
		if enc, ok := f.results.Get(key); ok {
			f.stats.CacheHits++
			return decodeOutcomes(enc), nil
		}
	}
	be, err := f.Backend(tgt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	repsBefore := be.repsRun
	reps := f.opt.Reps
	ocs, err := be.Run(ctx, q, reps, flushFirst)
	// A vote tie (only possible with an even repetition count) escalates to
	// more repetitions instead of failing the query: 2k ties re-measure at
	// 2·2k+1 — odd, so the escalated run cannot tie again on the same split.
	for esc := 0; err != nil && errors.Is(err, ErrInconclusive) && esc < inconclusiveEscalations; esc++ {
		f.stats.Inconclusive++
		reps = reps*2 + 1
		ocs, err = be.Run(ctx, q, reps, flushFirst)
	}
	f.stats.Duration += time.Since(start)
	f.stats.Executed++
	f.stats.Repetitions += be.repsRun - repsBefore
	if err != nil {
		return nil, err
	}
	if key != nil {
		f.results.Set(key, encodeOutcomes(ocs))
	}
	return ocs, nil
}

// Query expands an MBL expression for the target's associativity and runs
// every resulting query, in expansion order. This is the tool's primary
// entry point (interactive and batch modes are thin wrappers in
// cmd/cachequery).
func (f *Frontend) Query(ctx context.Context, tgt Target, src string) ([]QueryResult, error) {
	be, err := f.Backend(tgt)
	if err != nil {
		return nil, err
	}
	queries, err := mbl.Expand(src, be.Assoc())
	if err != nil {
		return nil, err
	}
	f.stats.Expanded += len(queries)
	results := make([]QueryResult, 0, len(queries))
	for _, q := range queries {
		ocs, err := f.RunQuery(ctx, tgt, q, false)
		if err != nil {
			return nil, err
		}
		results = append(results, QueryResult{Query: q, Outcomes: append([]cache.Outcome(nil), ocs...)})
	}
	return results, nil
}

// Batch runs a list of MBL expressions against several sets of one level,
// returning rendered lines — the batch mode used for the Appendix B leader
// scans.
func (f *Frontend) Batch(ctx context.Context, level hw.Level, slices, sets []int, srcs []string) ([]string, error) {
	var lines []string
	for _, slice := range slices {
		for _, set := range sets {
			tgt := Target{Level: level, Slice: slice, Set: set}
			for _, src := range srcs {
				results, err := f.Query(ctx, tgt, src)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", tgt, err)
				}
				for _, r := range results {
					lines = append(lines, fmt.Sprintf("%s\t%s\t%s", tgt, r.Query, r.Pattern()))
				}
			}
		}
	}
	return lines, nil
}

// Targets enumerates every set of a level, optionally restricted to one
// slice (pass slice = -1 for all slices), in a deterministic order.
func (f *Frontend) Targets(level hw.Level, slice int) []Target {
	cfg := f.cpu.Config().Config(level)
	var out []Target
	for s := 0; s < cfg.Slices; s++ {
		if slice >= 0 && s != slice {
			continue
		}
		for i := 0; i < cfg.SetsPerSlice; i++ {
			out = append(out, Target{Level: level, Slice: s, Set: i})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slice != out[j].Slice {
			return out[i].Slice < out[j].Slice
		}
		return out[i].Set < out[j].Set
	})
	return out
}
