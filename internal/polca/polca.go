// Package polca implements Polca (Algorithm 1 of the paper): a membership
// and output oracle for a cache's replacement policy, given only black-box
// access to the cache's trace semantics.
//
// Polca translates policy-level inputs — Ln(i) "access line i" and Evct
// "free a line" — into sequences of memory blocks, by keeping track of the
// blocks currently stored in the cache. A hit on line i becomes an access to
// the block stored there; an eviction request becomes an access to a block
// that is not cached; and the identity of the evicted line is recovered by
// re-accessing the previously cached blocks after the eviction
// (findEvicted). A hit never changes a set's content (Definition 2.3), so
// one run that profiles every re-access answers each of them up to its
// first miss, and at most a second run settles the blocks after that miss.
// This inversion of the cache's transition rules (Figure 2) exposes the
// policy's data-independence symmetry to the learner and is what makes
// automata learning scale to hardware caches.
package polca

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// ErrNondeterministic is returned when the cache under observation behaves
// inconsistently with any deterministic replacement policy — for example
// when an access that must hit misses, or when an eviction group identifies
// zero or several evicted lines. On real hardware this is the symptom of an
// incorrect reset sequence or of an adaptive/randomized policy (§7).
var ErrNondeterministic = errors.New("polca: cache behaves nondeterministically")

// Prober is the abstract interface to a cache's trace semantics JCK.
// Every Probe conceptually starts from the cache's fixed initial state:
// implementations reset the cache (replaying the reset sequence on
// hardware), access all blocks of q in order, and report whether the last
// access hit. ProbeTrace does the same but reports the last k outcomes;
// CacheQuery profiles several accesses of one MBL query the same way.
type Prober interface {
	// Assoc returns the associativity of the probed cache set.
	Assoc() int
	// InitialContent returns cc0: the blocks resident after a reset,
	// indexed by cache line.
	InitialContent() []blocks.Block
	// Probe runs q from the initial state and returns the last outcome.
	// Implementations backed by slow or remote systems must honor ctx
	// cancellation; simulators may only check its terminal state.
	Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error)
	// ProbeTrace runs q from the initial state and returns the outcomes of
	// its last k accesses, 1 <= k <= len(q), in access order. The slice
	// belongs to the caller.
	ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error)
}

// CheckSuffix rejects a profiled-suffix length k that ProbeTrace cannot
// honour for q: every run profiles between one and all of its accesses.
func CheckSuffix(q []blocks.Block, k int) error {
	if k < 1 || k > len(q) {
		return fmt.Errorf("polca: %d profiled accesses out of range for a %d-access probe", k, len(q))
	}
	return nil
}

// ConcurrentProber marks a Prober whose Probe method is safe for concurrent
// use (e.g. cachequery.ParallelProber, which multiplexes probes over a pool
// of independent CPU replicas). The oracle answers batched output queries on
// parallel goroutines only for concurrent probers; anything else — notably
// a bare hardware interface pinned to one core — is served one word at a
// time under the oracle's mutex, even across concurrent callers,
// preserving correctness by default.
type ConcurrentProber interface {
	Prober
	// ConcurrentProbes reports whether Probe may be called concurrently.
	ConcurrentProbes() bool
}

// FreshProber is an optional Prober extension that executes a probe
// unconditionally, bypassing any result cache the probing stack keeps below
// the oracle (a cachequery frontend's result cache, the LevelDB role). The
// determinism audit requires it on cached stacks: re-running a query
// through Probe would simply replay the cached first answer and the audit
// could never fire.
// Probers that re-execute the system on every Probe (software simulators)
// do not need it.
type FreshProber interface {
	Prober
	// ProbeFresh runs q against the system under observation even when a
	// cached result exists.
	ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error)
}

// Stats aggregates the cost counters of an oracle. The JSON names are the
// polcad daemon's wire format (docs/API.md) — change them only with the
// API docs.
type Stats struct {
	OutputQueries int `json:"output_queries"` // policy-level output queries answered
	Symbols       int `json:"symbols"`        // policy input symbols processed
	Probes        int `json:"probes"`         // reset-rooted cache probes issued (after memoization)
	MemoHits      int `json:"memo_hits"`      // memo answers: word symbols from the simulator engine's output store; on the probe path, probes answered by the probe store or spared by recorded outputs
	Accesses      int `json:"accesses"`       // total block accesses issued to the cache
	Retries       int `json:"retries"`        // transient probe failures absorbed by the retry policy
	Disagreements int `json:"disagreements"`  // probe re-executions (votes) that returned conflicting outcomes
	Reprobes      int `json:"reprobes"`       // consistency-check failures re-probed before declaring nondeterminism
}

// Oracle answers membership and output queries for the replacement policy of
// the cache behind a Prober. It is the paper's Polca plus the probe
// memoization that the real tool delegates to LevelDB (§4.2) — upgraded to a
// prefix-tree query engine over the shared query store (internal/qstore):
// outputs are memoized per policy symbol, so any query is answered from its
// longest recorded prefix, and on a compiled simulator every recorded node
// keeps the table state its prefix reaches, so a query that extends a known
// prefix executes only its suffix instead of replaying the whole word from
// reset.
//
// The oracle is safe for concurrent use and implements learn.BatchTeacher.
// A compiled simulator oracle (*SimProber on the policy kernel) answers
// every query through that engine (see engine.go). Any other prober takes
// the reset-rooted probe path (see probe.go). Unless the prober is a
// ConcurrentProber (a pool of hardware replicas), whose batches fan out on
// parallel goroutines, the oracle answers word by word under one mutex, so
// its answers and cost counters do not depend on the host or on how
// callers chunk their queries. Each store has its own mutex, held only
// around a store walk or update (see store.go); the cost counters are
// atomics, touched lock-free on the hot path.
type Oracle struct {
	prober  Prober
	sim     *SimProber // a compiled simulator: the engine answers (see engine.go)
	cc0     []blocks.Block
	cc0IDs  []int32 // dense universe indices of cc0
	recheck int     // re-run every recheck-th query to detect nondeterminism
	workers int     // batch fan-out width over a ConcurrentProber

	retry RetryPolicy // transient-failure retry policy (see retry.go)
	votes int         // probe executions per result; >1 majority-votes against flips

	outputQueries atomic.Int64
	symbols       atomic.Int64
	probesN       atomic.Int64
	memoHits      atomic.Int64
	accessesN     atomic.Int64
	retriesN      atomic.Int64
	disagreeN     atomic.Int64
	reprobesN     atomic.Int64

	// Checkpointing (SetCheckpointer): ckFn is fired at most once per
	// ckEvery answered output queries, serialized by ckMu; overlapping
	// triggers from concurrent batch workers are skipped, not queued.
	ckEvery int64
	ckFn    func()
	ckMu    sync.Mutex
	ckLast  atomic.Int64

	engine sync.Mutex // held across one serial batch and its audits

	outMu sync.Mutex
	out   *qstore.Store[int, outVal] // policy-level output memo + table states; guarded by outMu

	ptMu     sync.Mutex
	pt       *qstore.Store[int32, probeVal] // block-level probe memo; guarded by ptMu
	inflight map[int32]*inflightProbe       // pt node -> its execution in flight; guarded by ptMu
}

// Option configures an Oracle.
type Option func(*Oracle)

// WithDeterminismChecks re-executes every n-th output query and compares the
// answers, converting silent cross-query nondeterminism (the symptom of an
// incorrect reset sequence or an adaptive policy, §7.1) into
// ErrNondeterministic instead of an ever-growing hypothesis.
func WithDeterminismChecks(n int) Option {
	return func(o *Oracle) { o.recheck = n }
}

// WithParallelism caps the number of goroutines a batched output query may
// fan out over a ConcurrentProber. n <= 0 restores the default,
// runtime.GOMAXPROCS(0); n == 1 forces serial answering under the oracle's
// mutex. The cap is also the oracle's BatchHint, and so sets the learner's
// prefetch width. Any other prober, a simulator's included, answers
// serially, hints 1 and ignores it.
func WithParallelism(n int) Option {
	return func(o *Oracle) { o.workers = n }
}

// WithProbeRetries overrides the oracle's transient-failure retry policy
// (the default is DefaultRetryPolicy). A zero policy disables retries:
// every probe error propagates immediately, as in the pre-resilience
// oracle.
func WithProbeRetries(rp RetryPolicy) Option {
	return func(o *Oracle) { o.retry = rp }
}

// WithProbeVotes executes every real (non-memoized) probe n times and
// majority-votes the outcome, defending against rare wrong-answer flips
// from noisy hardware at n-times the probe cost. Conflicting executions
// are counted in Stats.Disagreements. n <= 1 keeps single execution.
func WithProbeVotes(n int) Option {
	return func(o *Oracle) {
		if n < 1 {
			n = 1
		}
		o.votes = n
	}
}

// SetCheckpointer arranges for fn to run at most once per every answered
// output queries — the hook the crash-resume pipeline uses to auto-snapshot
// the oracle's stores during long learns. fn runs on the querying
// goroutine, serialized against itself; a trigger that finds a checkpoint
// already in progress is skipped, not queued, so a slow snapshot never
// stalls more than one worker. every <= 0 disables checkpointing.
func (o *Oracle) SetCheckpointer(every int, fn func()) {
	o.ckEvery = int64(every)
	o.ckFn = fn
}

// maybeCheckpoint fires the checkpoint hook when the answered-query count
// crossed into a new ckEvery-sized window since the last checkpoint.
func (o *Oracle) maybeCheckpoint() {
	if o.ckFn == nil || o.ckEvery <= 0 {
		return
	}
	seq := o.outputQueries.Load()
	last := o.ckLast.Load()
	if seq/o.ckEvery <= last/o.ckEvery {
		return
	}
	if !o.ckMu.TryLock() {
		return // a checkpoint is already being written; skip this trigger
	}
	defer o.ckMu.Unlock()
	if seq/o.ckEvery <= o.ckLast.Load()/o.ckEvery {
		return
	}
	o.ckFn()
	o.ckLast.Store(seq)
}

// NewOracle builds a Polca oracle over the given cache interface.
func NewOracle(p Prober, opts ...Option) *Oracle {
	o := &Oracle{
		prober: p,
		cc0:    append([]blocks.Block(nil), p.InitialContent()...),
		retry:  DefaultRetryPolicy,
		votes:  1,
	}
	if sp, ok := p.(*SimProber); ok && sp.Compiled() {
		o.sim = sp
	}
	for _, opt := range opts {
		opt(o)
	}
	if len(o.cc0) != p.Assoc() {
		panic(fmt.Sprintf("polca: initial content has %d lines, associativity is %d", len(o.cc0), p.Assoc()))
	}
	o.cc0IDs = make([]int32, len(o.cc0))
	for i, b := range o.cc0 {
		id, err := blocks.Index(b)
		if err != nil {
			panic(fmt.Sprintf("polca: initial content has invalid line %d: %v; the reset must fill the set", i, err))
		}
		o.cc0IDs[i] = int32(id)
	}
	o.out = qstore.New[int, outVal](policy.NumInputs(p.Assoc()))
	o.pt = qstore.New[int32, probeVal](0)
	o.inflight = make(map[int32]*inflightProbe)
	return o
}

// NumInputs implements learn.Teacher: the policy alphabet Ln(0..n-1), Evct.
func (o *Oracle) NumInputs() int { return policy.NumInputs(o.prober.Assoc()) }

// Stats returns a snapshot of the accumulated cost counters. The counters
// themselves are atomics — the probe hot loop never takes a lock for them —
// so the snapshot is read lock-free too.
func (o *Oracle) Stats() Stats {
	return Stats{
		OutputQueries: int(o.outputQueries.Load()),
		Symbols:       int(o.symbols.Load()),
		Probes:        int(o.probesN.Load()),
		MemoHits:      int(o.memoHits.Load()),
		Accesses:      int(o.accessesN.Load()),
		Retries:       int(o.retriesN.Load()),
		Disagreements: int(o.disagreeN.Load()),
		Reprobes:      int(o.reprobesN.Load()),
	}
}

// StoreFootprint reports the trie-node counts of the oracle's two query
// stores — the policy-level output memo and the block-level probe memo —
// as a live capacity/coverage signal. The polcad daemon surfaces it on the
// status endpoint so operators can watch shared engines fill up. Reading
// them takes each store's mutex for one length read.
func (o *Oracle) StoreFootprint() (outNodes, probeNodes int) {
	o.outMu.Lock()
	outNodes = o.out.NodeCount()
	o.outMu.Unlock()
	o.ptMu.Lock()
	probeNodes = o.pt.NodeCount()
	o.ptMu.Unlock()
	return outNodes, probeNodes
}

// BatchHint implements learn.BatchHinter (duck-typed to avoid an import
// cycle with package learn's tests): the learner scales its prefetch chunks
// to the hint. It is the oracle's usable parallelism, fixed for its
// lifetime: the worker cap of a concurrent prober (core.LearnHardware sets
// it to the replica count), and 1 for any other — such an oracle answers
// batches word by word under one mutex, so it keeps the exact serial
// query trajectory.
func (o *Oracle) BatchHint() int { return o.parallelism() }

// parallelism reports how many goroutines a batch may use against the
// underlying prober: 1 unless the prober explicitly supports concurrency.
func (o *Oracle) parallelism() int {
	if cp, ok := o.prober.(ConcurrentProber); !ok || !cp.ConcurrentProbes() {
		return 1
	}
	if o.workers > 0 {
		return o.workers
	}
	return runtime.GOMAXPROCS(0)
}

// OutputQuery runs the policy-input word (encoded as in package policy:
// 0..n-1 are Ln(i), n is Evct) against the cache and returns the policy
// output word: policy.Bottom for every Ln input and the evicted line for
// every Evct input. This is the oracle the learner consumes; Membership
// (Algorithm 1 verbatim) is a comparison on top of it. It answers, counts
// and audits the word as OutputQueryBatch answers a batch of one, without
// building the batch: a serial learn calls it once per query.
func (o *Oracle) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if err := o.admit(ctx, word); err != nil {
		return nil, err
	}
	serial := o.parallelism() == 1
	if serial {
		o.engine.Lock()
	}
	ans, err := o.answer(ctx, int(o.outputQueries.Add(1)), word)
	if serial {
		o.engine.Unlock()
	}
	if err != nil {
		return nil, err
	}
	o.maybeCheckpoint()
	return ans, nil
}

// answer answers word as output query number seq and audits it: through
// the query engine on a compiled simulator oracle, through reset-rooted
// probes otherwise.
func (o *Oracle) answer(ctx context.Context, seq int, word []int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.symbols.Add(int64(len(word)))
	var out []int
	if o.sim != nil {
		out = o.engineWord(word)
	} else {
		var err error
		if out, err = o.probesQueryTrie(ctx, word); err != nil {
			return nil, err
		}
	}
	if err := o.audit(ctx, seq, word, out); err != nil {
		return nil, err
	}
	return out, nil
}

// audit is the determinism check of query number seq: on the
// WithDeterminismChecks schedule it re-executes word through fresh
// reset-rooted probes — memoization must be bypassed, otherwise the first
// answer would simply be replayed — and compares with out.
func (o *Oracle) audit(ctx context.Context, seq int, word, out []int) error {
	if o.recheck <= 0 || seq%o.recheck != 0 || len(word) == 0 {
		return nil
	}
	again, err := o.outputQueryProbes(ctx, word)
	if err != nil {
		return err
	}
	for i := range out {
		if out[i] != again[i] {
			return fmt.Errorf("%w: repeated query diverged at position %d (%d vs %d)",
				ErrNondeterministic, i, out[i], again[i])
		}
	}
	return nil
}

// OutputQueryBatch implements learn.BatchTeacher: it answers len(words)
// independent output queries. An oracle whose prober is not a
// ConcurrentProber — a simulator's included — answers the words one by one
// under its engine mutex, so concurrent callers never probe at once;
// otherwise the words fan out across a worker pool (a pool of hardware
// replicas). A word with an out-of-range symbol fails the whole call
// before any counter, store or probe is touched. Answers, memo contents
// and counters are identical to asking the words one by one; only the
// wall-clock cost changes. The fan-out reserves the batch's query numbers
// up front and gives each word its index-ordered number, so which words
// the determinism audit re-checks does not depend on goroutine scheduling.
func (o *Oracle) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	if err := o.admit(ctx, words...); err != nil {
		return nil, err
	}
	workers := o.parallelism()
	out := make([][]int, len(words))
	if workers == 1 {
		var err error
		o.engine.Lock()
		for i, w := range words {
			if out[i], err = o.answer(ctx, int(o.outputQueries.Add(1)), w); err != nil {
				break
			}
		}
		o.engine.Unlock()
		if err != nil {
			return nil, err
		}
		o.maybeCheckpoint()
		return out, nil
	}
	if workers > len(words) {
		workers = len(words)
	}
	first := int(o.outputQueries.Add(int64(len(words)))) - len(words) + 1
	errs := make([]error, len(words))
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// answer checks ctx up front, so a batch cancelled by its
				// first failure drains its remaining indices without
				// prober work and every worker exits through the channel
				// close — one exhausted retry ladder fails the batch, the
				// other words do not each pay their own.
				if out[i], errs[i] = o.answer(bctx, first+i, words[i]); errs[i] != nil {
					cancel()
				} else {
					o.maybeCheckpoint()
				}
			}
		}()
	}
	for i := range words {
		next <- i
	}
	close(next)
	wg.Wait()
	// Report the first real failure in submission order; the cancellations
	// it inflicted on the rest of the batch are collateral, surfaced only
	// when nothing better exists (the caller itself was cancelled).
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
		if cancelled == nil {
			cancelled = err
		}
	}
	if cancelled != nil {
		return nil, cancelled
	}
	return out, nil
}

// admit fails a query call whose context is done or that holds a word with
// a symbol outside the policy alphabet. Every query entry point runs it
// over the whole call before touching a counter, a store or the prober.
func (o *Oracle) admit(ctx context.Context, words ...[]int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := o.prober.Assoc()
	for _, w := range words {
		for _, ip := range w {
			if ip < 0 || ip > n {
				return fmt.Errorf("polca: input %d out of range for associativity %d", ip, n)
			}
		}
	}
	return nil
}

// mapInputID is the paper's mapInput over dense block ids: Ln(i) feeds the
// block tracked at line i, Evct a fresh block. The input must already be
// range-checked.
func mapInputID(ip int, cc []int32) int32 {
	if ip < len(cc) {
		return cc[ip]
	}
	return freshID(cc)
}

// freshID returns the smallest universe index not present in cc — the id
// analog of blocks.Fresh, with no map and no string handling.
func freshID(cc []int32) int32 {
	for id := int32(0); ; id++ {
		taken := false
		for _, c := range cc {
			if c == id {
				taken = true
				break
			}
		}
		if !taken {
			return id
		}
	}
}

// Pair is one input/output pair of a policy trace.
type Pair struct {
	In  int // 0..n-1 for Ln(i), n for Evct
	Out int // policy.Bottom or a line index
}

// Membership decides whether the trace belongs to the policy's trace
// semantics JPK — Algorithm 1 verbatim. A nondeterminism error is
// propagated; a mere output mismatch yields false.
func (o *Oracle) Membership(ctx context.Context, t []Pair) (bool, error) {
	word := make([]int, len(t))
	for i, p := range t {
		word[i] = p.In
	}
	got, err := o.OutputQuery(ctx, word)
	if err != nil {
		return false, err
	}
	for i, p := range t {
		if got[i] != p.Out {
			return false, nil
		}
	}
	return true, nil
}
