// Package cachequery implements CacheQuery (§4 of the paper): an abstract
// interface to individual cache sets of a (simulated) silicon CPU. Users
// name a cache set — say, set 63 of the L2 — and submit MemBlockLang
// queries; CacheQuery takes care of virtual-to-physical translation, slice
// hashing, set indexing, eviction of accessed blocks from higher cache
// levels, latency profiling, threshold calibration, repetition voting, and
// caching of query results.
//
// The backend below plays the role of the paper's Linux kernel module: it
// owns the congruent-address pools and executes access plans against the
// simulated CPU. The frontend (frontend.go) expands MBL expressions and
// memoizes query results, as the real tool does with LevelDB.
package cachequery

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/mbl"
)

// Target names one cache set of the CPU.
type Target struct {
	Level hw.Level
	Slice int
	Set   int
}

// String renders the target like the tool's virtual file paths, e.g.
// "l2_sets/63".
func (t Target) String() string {
	if t.Slice == 0 {
		return fmt.Sprintf("l%d_sets/%d", int(t.Level)+1, t.Set)
	}
	return fmt.Sprintf("l%d_sets/%d.%d", int(t.Level)+1, t.Slice, t.Set)
}

// BackendOptions tune pool sizes and measurement repetition.
type BackendOptions struct {
	// MaxBlocks is the number of distinct congruent blocks the backend
	// provisions (the usable MBL block universe for this set).
	MaxBlocks int
	// Reps is the default number of times a query is executed for
	// majority voting; queries must be reset-prefixed for this to be
	// sound. Odd counts cannot tie; an even count is accepted because the
	// frontend escalates any vote tie to 2·Reps+1 (odd) repetitions.
	Reps int
	// EvictRounds is how many passes over an eviction set are used to
	// filter a block out of a higher level.
	EvictRounds int
	// CalibrationSamples per latency class.
	CalibrationSamples int
}

// DefaultBackendOptions returns the tuning the experiments use.
func DefaultBackendOptions() BackendOptions {
	return BackendOptions{MaxBlocks: 24, Reps: 3, EvictRounds: 2, CalibrationSamples: 41}
}

// Backend executes access plans against one target cache set.
type Backend struct {
	cpu *hw.CPU
	tgt Target
	opt BackendOptions

	pool    []hw.Addr     // congruent lines, in block-universe order
	lines   []hw.Line     // pool, resolved once when provisioning ends
	byID    []int32       // dense block id -> pool index, -1 unbound (grown on demand)
	byIDBig map[int]int32 // bindings for rare block ids past denseIDCap
	bound   int           // number of blocks bound to pool addresses so far

	// The eviction sets are resolved to line handles too: the probe path
	// replays them on every access and repetition.
	l1Evict []hw.Line // filters the pool's shared L1 set (targets >= L2)
	l2Evict []hw.Line // filters the pool's shared L2 set (L3 targets)
	// calEvict evicts the calibration scratch block from the target level
	// but not from the next one, yielding a "nearest miss" latency sample
	// (unused for L3 targets, where clflush provides the DRAM sample).
	calEvict []hw.Line

	threshold float64         // hit-at-target-level classification bound
	lats      []float64       // runOnce's latency buffer, reused (a backend is serial)
	votes     []int           // Run's hit-vote buffer, reused likewise
	out       []cache.Outcome // Run's outcome buffer, reused likewise

	// Cost counters for the §7.2 experiments.
	queriesRun int
	repsRun    int // repetitions Run executed
	loadsDone  uint64
}

// NewBackend provisions address pools and calibrates the latency threshold
// for one target set. The CPU is put into the low-noise measurement
// configuration (prefetchers off, interrupts/dvfs suppressed), as the real
// tool does (§4.3).
func NewBackend(cpu *hw.CPU, tgt Target, opt BackendOptions) (*Backend, error) {
	cfg := cpu.Config().Config(tgt.Level)
	if tgt.Slice < 0 || tgt.Slice >= cfg.Slices {
		return nil, fmt.Errorf("cachequery: slice %d out of range for %v", tgt.Slice, tgt.Level)
	}
	if tgt.Set < 0 || tgt.Set >= cfg.SetsPerSlice {
		return nil, fmt.Errorf("cachequery: set %d out of range for %v", tgt.Set, tgt.Level)
	}
	if opt.MaxBlocks <= 0 || opt.Reps <= 0 {
		return nil, fmt.Errorf("cachequery: invalid options %+v (MaxBlocks and Reps must be positive)", opt)
	}
	cpu.SetPrefetcher(false)
	cpu.SetLowNoise(true)

	b := &Backend{cpu: cpu, tgt: tgt, opt: opt}
	if err := b.provision(); err != nil {
		return nil, err
	}
	if err := b.calibrate(); err != nil {
		return nil, err
	}
	return b, nil
}

// Target returns the backend's cache set.
func (b *Backend) Target() Target { return b.tgt }

// Assoc returns the associativity of the target set (accounting for CAT
// way masking, which must be configured before the backend is built).
func (b *Backend) Assoc() int { return b.cpu.EffectiveAssoc(b.tgt.Level) }

// Threshold returns the calibrated hit/miss latency boundary in cycles.
func (b *Backend) Threshold() float64 { return b.threshold }

// matches reports whether a physical address belongs to the target set.
func (b *Backend) matches(pa hw.Addr) bool {
	slice, set := b.cpu.SetIndex(b.tgt.Level, pa)
	return slice == b.tgt.Slice && set == b.tgt.Set
}

// provision scans freshly allocated pages for congruent lines and builds the
// non-interfering eviction sets used for cache filtering.
func (b *Backend) provision() error {
	cfgL1 := b.cpu.Config().Config(hw.L1)
	wantPool := b.opt.MaxBlocks
	wantL1, wantL2 := 0, 0
	if b.tgt.Level >= hw.L2 {
		wantL1 = cfgL1.Assoc*2 + 4
	}
	if b.tgt.Level == hw.L3 {
		wantL2 = b.cpu.Config().Config(hw.L2).Assoc*2 + 4
	}

	// All pool lines share one L1 set (and one L2 set), because the L1/L2
	// set index bits are a suffix of the higher-level index bits; derive
	// them from the target set number.
	l1Set := b.tgt.Set % cfgL1.SetsPerSlice
	l2Sets := b.cpu.Config().Config(hw.L2).SetsPerSlice
	l2Set := b.tgt.Set % l2Sets

	var l1Evict, l2Evict []hw.Addr
	const maxPages = 1 << 17
	for pages := 0; pages < maxPages; pages += 64 {
		base := b.cpu.AllocBuffer(64)
		for line := 0; line < 64*hw.PageSize/hw.LineSize; line++ {
			va := base + hw.Addr(line)*hw.LineSize
			pa := b.cpu.TranslateToPhys(va)
			_, l1s := b.cpu.SetIndex(hw.L1, pa)
			_, l2s := b.cpu.SetIndex(hw.L2, pa)
			switch {
			case b.matches(pa) && len(b.pool) < wantPool:
				b.pool = append(b.pool, va)
			case b.tgt.Level >= hw.L2 && l1s == l1Set && !b.matchesLevelSet(pa) && len(l1Evict) < wantL1:
				l1Evict = append(l1Evict, va)
			case b.tgt.Level == hw.L3 && l2s == l2Set && !b.matches(pa) && len(l2Evict) < wantL2:
				l2Evict = append(l2Evict, va)
			}
		}
		if len(b.pool) >= wantPool && len(l1Evict) >= wantL1 && len(l2Evict) >= wantL2 {
			calEvict, err := b.provisionCalibration()
			if err != nil {
				return err
			}
			// Every address is translated by now, so resolving draws no
			// page frames: the CPU's state is what it was before.
			b.lines = b.resolve(b.pool)
			b.l1Evict, b.l2Evict, b.calEvict = b.resolve(l1Evict), b.resolve(l2Evict), b.resolve(calEvict)
			return nil
		}
	}
	return fmt.Errorf("cachequery: could not provision %d congruent lines for %s", wantPool, b.tgt)
}

// resolve binds provisioned addresses to line handles.
func (b *Backend) resolve(vas []hw.Addr) []hw.Line {
	out := make([]hw.Line, len(vas))
	for i, va := range vas {
		out[i] = b.cpu.ResolveLine(va)
	}
	return out
}

// provisionCalibration builds the calibration eviction set: addresses that
// conflict with the scratch block (pool[0]) at the target level while
// leaving its copy at the next level untouched, so a post-eviction load
// yields a next-level hit — the closest miss latency the threshold must
// separate. L3 targets need none: their misses are DRAM accesses.
func (b *Backend) provisionCalibration() ([]hw.Addr, error) {
	if b.tgt.Level == hw.L3 {
		return nil, nil
	}
	scratchPA := b.cpu.TranslateToPhys(b.pool[0])
	sL2, sL2set := b.cpu.SetIndex(hw.L2, scratchPA)
	sL3, sL3set := b.cpu.SetIndex(hw.L3, scratchPA)
	_, l1Set := b.cpu.SetIndex(hw.L1, scratchPA)
	want := b.cpu.Config().Config(b.tgt.Level).Assoc*2 + 4

	var calEvict []hw.Addr
	const maxPages = 1 << 17
	for pages := 0; pages < maxPages; pages += 64 {
		base := b.cpu.AllocBuffer(64)
		for line := 0; line < 64*hw.PageSize/hw.LineSize; line++ {
			va := base + hw.Addr(line)*hw.LineSize
			pa := b.cpu.TranslateToPhys(va)
			l3Slice, l3Set := b.cpu.SetIndex(hw.L3, pa)
			if l3Slice == sL3 && l3Set == sL3set {
				continue // would evict the scratch line from L3 inclusively
			}
			l2Slice, l2Set := b.cpu.SetIndex(hw.L2, pa)
			_, l1s := b.cpu.SetIndex(hw.L1, pa)
			switch b.tgt.Level {
			case hw.L1:
				// Conflict in L1, avoid the scratch L2 set.
				if l1s == l1Set && !(l2Slice == sL2 && l2Set == sL2set) {
					calEvict = append(calEvict, va)
				}
			case hw.L2:
				// Conflict in L2 (which also evicts from L1).
				if l2Slice == sL2 && l2Set == sL2set {
					calEvict = append(calEvict, va)
				}
			}
			if len(calEvict) >= want {
				return calEvict, nil
			}
		}
	}
	return nil, fmt.Errorf("cachequery: could not provision a calibration eviction set for %s", b.tgt)
}

// matchesLevelSet reports whether pa maps into the target's set at the
// *target level* (regardless of slice) — used to keep L1 eviction sets from
// interfering with the probed set.
func (b *Backend) matchesLevelSet(pa hw.Addr) bool {
	_, set := b.cpu.SetIndex(b.tgt.Level, pa)
	return set == b.tgt.Set
}

// load issues one timed access.
func (b *Backend) load(l hw.Line) float64 {
	b.loadsDone++
	return b.cpu.LoadLine(l)
}

// touch issues one access whose latency nobody reads: the same cache
// effects as load, without the latency noise draw.
func (b *Backend) touch(l hw.Line) {
	b.loadsDone++
	b.cpu.TouchLine(l)
}

// filter pushes the pool's blocks out of every level above the target by
// walking the non-interfering eviction sets (§4.3 "Cache Filtering").
func (b *Backend) filter() {
	if b.tgt.Level == hw.L1 {
		return
	}
	for round := 0; round < b.opt.EvictRounds; round++ {
		for _, l := range b.l2Evict {
			b.touch(l)
		}
		for _, l := range b.l1Evict {
			b.touch(l)
		}
	}
}

// AddressOf returns the virtual address backing an abstract block. Blocks
// are bound to pool addresses in order of first use, so any well-formed
// block name works until the pool of distinct congruent lines is exhausted.
func (b *Backend) AddressOf(block blocks.Block) (hw.Addr, error) {
	p, err := b.bind(block)
	if err != nil {
		return 0, err
	}
	return b.pool[p], nil
}

// bind returns the pool index of a block, binding the next free pool line
// on first use. The binding is indexed by the block's dense universe id,
// not its name, so the per-access hot path does one slice read instead of
// a string-map probe.
func (b *Backend) bind(block blocks.Block) (int32, error) {
	id, err := blocks.Index(block)
	if err != nil {
		return 0, fmt.Errorf("cachequery: invalid block name %q", block)
	}
	// The id space is open-ended (block "A<round>" has id round*26), so the
	// dense table is capped and rare ids beyond it bind through a map —
	// growing the slice to an arbitrary user-supplied id would allocate
	// unboundedly.
	const denseIDCap = 1 << 12
	if id < denseIDCap {
		if id >= len(b.byID) {
			grown := make([]int32, id+1)
			copy(grown, b.byID)
			for i := len(b.byID); i < len(grown); i++ {
				grown[i] = -1
			}
			b.byID = grown
		}
		if p := b.byID[id]; p >= 0 {
			return p, nil
		}
	} else if p, ok := b.byIDBig[id]; ok {
		return p, nil
	}
	if b.bound >= len(b.pool) {
		return 0, fmt.Errorf("cachequery: block %s exceeds the provisioned pool of %d congruent lines", block, len(b.pool))
	}
	p := int32(b.bound)
	if id < denseIDCap {
		b.byID[id] = p
	} else {
		if b.byIDBig == nil {
			b.byIDBig = make(map[int]int32)
		}
		b.byIDBig[id] = p
	}
	b.bound++
	return p, nil
}

// FlushPool clflushes every provisioned block (including the calibration
// eviction lines, which for an L2 target conflict with the probed set),
// emptying the target set without touching replacement metadata. This is
// the set-local analog of the Flush step in Flush+Refill resets.
func (b *Backend) FlushPool() {
	for _, l := range b.lines {
		b.cpu.CLFlushLine(l)
	}
	for _, l := range b.calEvict {
		b.cpu.CLFlushLine(l)
	}
}

// runOnce executes a query once and returns the raw latencies of the
// profiled accesses, valid until the next call. Only profiled accesses are
// timed; every other access is an untimed touch.
func (b *Backend) runOnce(q mbl.Query) ([]float64, error) {
	lats := b.lats[:0]
	for _, op := range q {
		p, err := b.bind(op.Block)
		if err != nil {
			return nil, err
		}
		l := b.lines[p]
		if op.Tag == mbl.TagFlush {
			b.cpu.CLFlushLine(l)
			continue
		}
		if op.Tag == mbl.TagProfile {
			lats = append(lats, b.load(l))
		} else {
			b.touch(l)
		}
		b.filter()
	}
	b.lats = lats
	return lats, nil
}

// ErrInconclusive is the sentinel every vote-tie failure wraps: a profiled
// access whose repetitions split evenly between hit and miss has no majority,
// and silently picking a winner would feed measurement noise to the learner
// as ground truth. Callers retry with more (odd) repetitions instead.
var ErrInconclusive = errors.New("cachequery: inconclusive measurement")

// InconclusiveError reports a vote tie on one profiled access. It wraps
// ErrInconclusive.
type InconclusiveError struct {
	Index  int // position among the query's profiled accesses
	Hits   int // repetitions classified as hits
	Reps   int // total repetitions
	Margin int // |hits - misses|; 0 for an exact tie
}

func (e *InconclusiveError) Error() string {
	return fmt.Sprintf("cachequery: inconclusive measurement at profiled access %d (%d/%d hit votes, margin %d)",
		e.Index, e.Hits, e.Reps, e.Margin)
}

// Unwrap marks the error as ErrInconclusive.
func (e *InconclusiveError) Unwrap() error { return ErrInconclusive }

// Run executes a query (the generated access plan) up to reps times,
// classifies every profiled access against the calibrated threshold, and
// majority-votes across repetitions. The vote is sequential: it stops as
// soon as every profiled access has more than reps/2 votes one way, which
// the remaining repetitions cannot overturn, so on the same measurements
// it returns exactly the full vote's outcomes (with reps 3, two agreeing
// repetitions decide). reps must be positive: callers pick the repetition
// count explicitly (the frontend passes its configured default), and an
// accidental zero would silently measure nothing. A vote tie — possible
// whenever reps is even — runs every repetition and returns an
// InconclusiveError naming the tied access instead of silently picking a
// winner; callers retry with more (odd) reps. If flushFirst is set, every
// repetition starts by flushing the pool. Repetition is only sound for
// reset-prefixed queries, which is what the learning pipeline issues.
// Cancellation is honored between repetitions. The returned slice is the
// backend's buffer, valid until the next Run: callers that keep outcomes
// copy them.
func (b *Backend) Run(ctx context.Context, q mbl.Query, reps int, flushFirst bool) ([]cache.Outcome, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("cachequery: invalid repetition count %d (must be positive)", reps)
	}
	return b.vote(ctx, reps, q.ProfiledCount(), func() ([]float64, error) {
		if flushFirst {
			b.FlushPool()
		}
		return b.runOnce(q)
	})
}

// vote is Run's sequential majority over nProf profiled accesses; measure
// executes one repetition and returns the profiled latencies.
func (b *Backend) vote(ctx context.Context, reps, nProf int, measure func() ([]float64, error)) ([]cache.Outcome, error) {
	votes := append(b.votes[:0], make([]int, nProf)...)
	b.votes = votes
	for done := 0; done < reps; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lats, err := measure()
		if err != nil {
			return nil, err
		}
		if len(lats) != nProf {
			return nil, fmt.Errorf("cachequery: profiled %d accesses, expected %d", len(lats), nProf)
		}
		done++
		b.repsRun++
		decided := true
		for i, l := range lats {
			if l <= b.threshold {
				votes[i]++
			}
			// Decided once hits or misses are a strict majority of reps.
			if v := votes[i]; v*2 <= reps && (done-v)*2 <= reps {
				decided = false
			}
		}
		if decided {
			break
		}
	}
	b.queriesRun++
	out := append(b.out[:0], make([]cache.Outcome, nProf)...)
	b.out = out
	for i, v := range votes {
		if v*2 == reps {
			return nil, &InconclusiveError{Index: i, Hits: v, Reps: reps, Margin: 0}
		}
		out[i] = cache.Outcome(v*2 > reps)
	}
	return out, nil
}

// calibrate measures hit-at-target and nearest-miss latencies on a scratch
// pool block and places the classification threshold between the two
// medians. The nearest miss is a next-level hit for L1/L2 targets (produced
// by conflict-evicting the scratch line at the target level only) and a
// DRAM access for L3 targets.
func (b *Backend) calibrate() error {
	scratch := b.lines[0]
	var hits, misses []float64
	for i := 0; i < b.opt.CalibrationSamples; i++ {
		// Hit sample: install the line, filter higher levels, re-load.
		b.load(scratch)
		b.filter()
		hits = append(hits, b.load(scratch))
		// Nearest-miss sample.
		if b.tgt.Level == hw.L3 {
			b.cpu.CLFlushLine(scratch)
		} else {
			for round := 0; round < b.opt.EvictRounds; round++ {
				for _, l := range b.calEvict {
					b.touch(l)
				}
			}
		}
		misses = append(misses, b.load(scratch))
		b.filter()
	}
	hm, mm := median(hits), median(misses)
	// Require a real gap between the classes: thresholds inside overlapping
	// distributions would classify noise, not cache behaviour.
	const minGap = 2.0
	if hm+minGap >= mm {
		return fmt.Errorf("cachequery: calibration failed: hit median %.1f and miss median %.1f are not separable", hm, mm)
	}
	b.threshold = (hm + mm) / 2
	// Leave no calibration residue in the target set: for L2 targets the
	// calibration eviction lines conflict with the probed set itself.
	b.FlushPool()
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Stats reports the backend's cost counters.
func (b *Backend) Stats() (queries int, loads uint64) { return b.queriesRun, b.loadsDone }
