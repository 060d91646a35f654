// Package polca implements Polca (Algorithm 1 of the paper): a membership
// and output oracle for a cache's replacement policy, given only black-box
// access to the cache's trace semantics.
//
// Polca translates policy-level inputs — Ln(i) "access line i" and Evct
// "free a line" — into sequences of memory blocks, by keeping track of the
// blocks currently stored in the cache. A hit on line i becomes an access to
// the block stored there; an eviction request becomes an access to a block
// that is not cached; and the identity of the evicted line is recovered by
// re-probing the cache with each previously cached block (findEvicted).
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
// when an access that must hit misses, or when the eviction probes identify
// zero or several evicted lines. On real hardware this is the symptom of an
// incorrect reset sequence or of an adaptive/randomized policy (§7).
var ErrNondeterministic = errors.New("polca: cache behaves nondeterministically")

// Prober is the abstract interface to a cache's trace semantics JCK.
// Every Probe conceptually starts from the cache's fixed initial state:
// implementations reset the cache (replaying the reset sequence on
// hardware), access all blocks of q in order, and report whether the last
// access hit.
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
}

// TraceProber is an optional Prober extension returning the full hit/miss
// trace of a probe rather than only the final outcome. CacheQuery supports
// it by tagging every access for profiling; the fingerprinting baseline
// (internal/fingerprint) depends on it.
type TraceProber interface {
	Prober
	ProbeTrace(ctx context.Context, q []blocks.Block) ([]cache.Outcome, error)
}

// Session is an incremental probing session rooted at the cache's initial
// state, used by the fast oracle path on software-simulated caches.
type Session interface {
	// Access feeds one block and returns its outcome.
	Access(b blocks.Block) (cache.Outcome, error)
	// Fork returns an independent session in the same cache state.
	Fork() (Session, error)
}

// ForkingProber is an optional Prober extension for caches that support
// cheap state snapshots (software simulators). The oracle's query engine
// executes interpreted simulator lanes on its sessions (see engine.go);
// the observable behaviour is identical to reset-rooted probing for
// deterministic caches.
type ForkingProber interface {
	Prober
	NewSession() (Session, error)
}

// PeekSession is an optional Session extension for sessions that can report
// the outcome the next access of a block would produce without advancing
// any state. For a deterministic cache this is content membership (an
// access hits iff the block is resident), so the oracle's findEvicted
// probes — n per Evct symbol — cost a scan instead of a forked session.
// Compiled-kernel simulator sessions implement it; the access counters are
// maintained identically on both paths.
type PeekSession interface {
	Session
	Peek(b blocks.Block) (cache.Outcome, error)
}

// evictionProbe returns the outcome an access of b would produce on sess
// without advancing sess: Peek when the session supports it, a discarded
// fork otherwise. The two are observably identical on deterministic caches.
func evictionProbe(sess Session, b blocks.Block) (cache.Outcome, error) {
	if ps, ok := sess.(PeekSession); ok {
		return ps.Peek(b)
	}
	fork, err := sess.Fork()
	if err != nil {
		return Missed(), err
	}
	return fork.Access(b)
}

// ConcurrentProber marks a Prober whose Probe method is safe for concurrent
// use (e.g. cachequery.ParallelProber, which multiplexes probes over a pool
// of independent CPU replicas). The oracle answers batched output queries on
// parallel goroutines only for concurrent probers; anything else — notably
// a bare hardware interface pinned to one core — is served serially,
// preserving correctness by default.
type ConcurrentProber interface {
	Prober
	// ConcurrentProbes reports whether Probe may be called concurrently.
	ConcurrentProbes() bool
}

// FreshProber is an optional Prober extension that executes a probe
// unconditionally, bypassing any result cache the probing stack keeps below
// the oracle (cachequery's ResultStore, the LevelDB role). The determinism
// audit requires it on cached stacks: re-running a query through Probe would
// simply replay the cached first answer and the audit could never fire.
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
// longest recorded prefix, and simulator probers park live sessions at
// store nodes so a query that extends a known prefix executes only its
// suffix instead of replaying the whole word from reset.
//
// The oracle is safe for concurrent use and implements learn.BatchTeacher.
// A simulator oracle (*SimProber) answers every query through one engine —
// plan → execute → record, serialized per oracle (see engine.go) — so its
// answers and cost counters do not depend on the host or on how callers
// chunk their queries. Any other prober takes the reset-rooted probe path,
// and independent words of a batch fan out on parallel goroutines when the
// prober is a ConcurrentProber (a replicated hardware interface, a remote
// fleet). The stores are lock-striped — one shard per leading input symbol
// — so those workers recording answers in different subtrees never contend
// on a single mutex; the cost counters are atomics, touched lock-free on
// the hot path.
type Oracle struct {
	prober  Prober
	sim     *SimProber // non-nil when the engine answers (see engine.go)
	cc0     []blocks.Block
	cc0IDs  []int32 // dense universe indices of cc0
	recheck int     // re-run every recheck-th query to detect nondeterminism
	workers int     // batch fan-out width over a ConcurrentProber
	sessCap int

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

	engine sync.Mutex // held across one engine batch: plan → execute → record

	out    *qstore.Store[int, outVal]     // policy-level output memo + parked sessions
	pt     *qstore.Store[int32, probeVal] // block-level probe memo + single-flight
	lru    []lruList                      // per-shard parked-session LRU (see store.go)
	lruCap int                            // parked-session budget per shard
}

// inflightProbe is a single-flight slot: the first goroutine to miss the
// memo on a key executes the probe, every concurrent requester of the same
// key waits on done instead of duplicating the (expensive) execution.
type inflightProbe struct {
	done chan struct{}
	oc   cache.Outcome
	err  error
}

// Option configures an Oracle.
type Option func(*Oracle)

// DefaultSessionCap bounds how many forked sessions the trie keeps parked
// at interior nodes before evicting the least recently used one.
const DefaultSessionCap = 1024

// WithSessionCap overrides the parked-session bound; n <= 0 restores
// DefaultSessionCap. The budget is divided evenly across the output
// store's shards (at least one parked session per shard).
func WithSessionCap(n int) Option {
	return func(o *Oracle) {
		if n <= 0 {
			n = DefaultSessionCap
		}
		o.sessCap = n
	}
}

// WithDeterminismChecks re-executes every n-th output query and compares the
// answers, converting silent cross-query nondeterminism (the symptom of an
// incorrect reset sequence or an adaptive policy, §7.1) into
// ErrNondeterministic instead of an ever-growing hypothesis.
func WithDeterminismChecks(n int) Option {
	return func(o *Oracle) { o.recheck = n }
}

// WithParallelism caps the number of goroutines a batched output query may
// fan out over a ConcurrentProber. n <= 0 restores the default,
// runtime.GOMAXPROCS(0) (or the live fleet width); n == 1 forces serial
// batch answering. Simulator oracles answer through the serialized engine
// and ignore it.
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
		prober:  p,
		cc0:     append([]blocks.Block(nil), p.InitialContent()...),
		sessCap: DefaultSessionCap,
		retry:   DefaultRetryPolicy,
		votes:   1,
	}
	o.sim, _ = p.(*SimProber)
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
	numIn := policy.NumInputs(p.Assoc())
	o.out = qstore.New[int, outVal](qstore.Options{Degree: numIn, Stripes: numIn, Sync: true})
	o.pt = qstore.New[int32, probeVal](qstore.Options{Stripes: numIn, Sync: true})
	o.lru = make([]lruList, o.out.Stripes())
	for i := range o.lru {
		o.lru[i] = lruList{head: -1, tail: -1}
	}
	o.lruCap = o.sessCap / o.out.Stripes()
	if o.lruCap < 1 {
		o.lruCap = 1
	}
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
// them takes each shard lock briefly, so the hot query path is unaffected.
func (o *Oracle) StoreFootprint() (outNodes, probeNodes int) {
	return o.out.NodeCount(), o.pt.NodeCount()
}

// BatchHint implements learn.BatchHinter (duck-typed to avoid an import
// cycle with package learn's tests): the learner scales its prefetch chunks
// to the hint. A simulator oracle advertises a fixed width, engineHint:
// planning whole chunks against the store pays off regardless of the host,
// and a constant keeps the learner's query trajectory host-independent. A
// fleet-backed prober scales the hint to the live fleet width (slots per
// worker times healthy workers), re-read on every call so chunks widen
// again when a quarantined worker is re-admitted. Any other prober gets
// its usable parallelism, so a serial prober keeps the exact serial query
// trajectory.
func (o *Oracle) BatchHint() int {
	if w := o.fleetWidth(); w > 0 {
		return max(w*fleetDepth, engineHint)
	}
	if o.sim != nil {
		return engineHint
	}
	return o.parallelism()
}

// parallelism reports how many goroutines a batch may use against the
// underlying prober: 1 unless the prober explicitly supports concurrency.
// A fleet-backed prober gets one goroutine per live fleet slot — the work
// is I/O bound, so local CPU count is the wrong ceiling.
func (o *Oracle) parallelism() int {
	if cp, ok := o.prober.(ConcurrentProber); !ok || !cp.ConcurrentProbes() {
		return 1
	}
	if o.workers > 0 {
		return o.workers
	}
	if w := o.fleetWidth(); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// probe issues one memoized reset-rooted probe through the block-id probe
// store: ids carries q as dense block indices, so the memo key is a trie
// path, not an allocated string. The probe's shard stays locked only
// around the memo bookkeeping; the execution itself is single-flighted so
// parallel batch goroutines that miss the memo on the same key (words
// sharing an input prefix probe identical block sequences) wait for one
// execution instead of duplicating it.
func (o *Oracle) probe(ctx context.Context, q []blocks.Block, ids []int32) (cache.Outcome, error) {
	sh := o.pt.Acquire(ids)
	n := sh.Ensure(ids)
	if sh.Has(n) {
		oc := sh.Val(n).oc
		o.memoHits.Add(1)
		sh.Release()
		return oc, nil
	}
	if fl := sh.Val(n).fl; fl != nil {
		sh.Release()
		<-fl.done
		if fl.err != nil {
			return Missed(), fl.err
		}
		o.memoHits.Add(1)
		return fl.oc, nil
	}
	fl := &inflightProbe{done: make(chan struct{})}
	sh.Val(n).fl = fl
	sh.Release()

	fl.oc, fl.err = o.executeProbe(ctx, q, false)
	sh = o.pt.Acquire(ids)
	sh.Val(n).fl = nil
	if fl.err == nil {
		o.probesN.Add(1)
		o.accessesN.Add(int64(len(q)))
		sh.Put(n, probeVal{oc: fl.oc})
	}
	sh.Release()
	close(fl.done)
	if fl.err != nil {
		return Missed(), fl.err
	}
	return fl.oc, nil
}

// freshProbe is the determinism audit's probe: it bypasses the memo
// entirely AND forces a real execution on cached probing stacks
// (FreshProber) — a cached replay of the first answer would make the audit
// vacuous.
func (o *Oracle) freshProbe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	oc, err := o.executeProbe(ctx, q, true)
	if err != nil {
		return Missed(), err
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
	oc, err := o.executeProbe(ctx, q, true)
	if err != nil {
		return Missed(), err
	}
	o.reprobesN.Add(1)
	o.probesN.Add(1)
	o.accessesN.Add(int64(len(q)))
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
			return Missed(), err
		}
		if oc == cache.Hit {
			hits++
		}
	}
	return o.tally(hits), nil
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

// Missed is a zero Outcome helper used on error paths.
func Missed() cache.Outcome { return cache.Miss }

// OutputQuery runs the policy-input word (encoded as in package policy:
// 0..n-1 are Ln(i), n is Evct) against the cache and returns the policy
// output word: policy.Bottom for every Ln input and the evicted line for
// every Evct input. This is the oracle the learner consumes; Membership
// (Algorithm 1 verbatim) is a comparison on top of it.
func (o *Oracle) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	if o.sim != nil {
		out, err := o.engineBatch(ctx, [][]int{word})
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return o.outputQuery(ctx, int(o.outputQueries.Add(1)), word)
}

// outputQuery answers word as output query number seq on the probe path.
func (o *Oracle) outputQuery(ctx context.Context, seq int, word []int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o.symbols.Add(int64(len(word)))
	out, err := o.probesQueryTrie(ctx, word)
	if err != nil {
		return nil, err
	}
	if err := o.audit(ctx, seq, word, out); err != nil {
		return nil, err
	}
	o.maybeCheckpoint()
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
// independent output queries. A simulator oracle answers the whole batch
// in one engine pass; otherwise the words fan out across a worker pool
// when the prober supports concurrent probing (a replicated hardware
// interface, a remote fleet), falling back to a serial loop. Answers, memo
// contents and counters are identical to asking the words one by one;
// only the wall-clock cost changes. The fan-out reserves the batch's
// query numbers up front and gives each word its index-ordered number, so
// which words the determinism audit re-checks does not depend on
// goroutine scheduling.
func (o *Oracle) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	if o.sim != nil {
		return o.engineBatch(ctx, words)
	}
	workers := o.parallelism()
	if workers > len(words) {
		workers = len(words)
	}
	out := make([][]int, len(words))
	if workers <= 1 {
		for i, w := range words {
			ans, err := o.OutputQuery(ctx, w)
			if err != nil {
				return nil, err
			}
			out[i] = ans
		}
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
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
				// outputQuery checks ctx up front, so a batch cancelled by
				// its first failure drains its remaining indices without
				// prober work and every worker exits through the channel
				// close — one exhausted retry ladder fails the batch, the
				// other words do not each pay their own.
				out[i], errs[i] = o.outputQuery(bctx, first+i, words[i])
				if errs[i] != nil {
					cancel()
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

// outputQueryProbes is the faithful Algorithm 1 loop over fresh
// reset-rooted probes, which every prober implements. It is the
// determinism audit's re-execution: no memo, no re-probing — an
// inconsistency here is exactly what the audit exists to catch.
func (o *Oracle) outputQueryProbes(ctx context.Context, word []int) ([]int, error) {
	n := o.prober.Assoc()
	cc := append([]blocks.Block(nil), o.cc0...)
	ic := make([]blocks.Block, 0, len(word))
	out := make([]int, len(word))

	for i, ip := range word {
		b, err := mapInput(ip, cc, n)
		if err != nil {
			return nil, err
		}
		ic = append(ic, b)
		oc, err := o.freshProbe(ctx, ic)
		if err != nil {
			return nil, err
		}
		op, err := o.mapOutputProbes(ctx, ip, oc, ic, cc)
		if err != nil {
			return nil, err
		}
		if op != policy.Bottom {
			cc[op] = b
		}
		out[i] = op
	}
	return out, nil
}

// mapOutputProbes maps a cache outcome back to a policy output, issuing the
// findEvicted probes on a miss.
func (o *Oracle) mapOutputProbes(ctx context.Context, ip int, oc cache.Outcome, ic []blocks.Block, cc []blocks.Block) (int, error) {
	n := o.prober.Assoc()
	if ip < n { // Ln(i): the block is cached, the access must hit
		if oc != cache.Hit {
			return 0, fmt.Errorf("%w: access to cached block %s missed", ErrNondeterministic, ic[len(ic)-1])
		}
		return policy.Bottom, nil
	}
	// Evct: the access must miss, and exactly one resident block must have
	// been displaced.
	if oc != cache.Miss {
		return 0, fmt.Errorf("%w: access to fresh block %s hit", ErrNondeterministic, ic[len(ic)-1])
	}
	evicted := -1
	for i := 0; i < n; i++ {
		poc, err := o.freshProbe(ctx, append(append([]blocks.Block(nil), ic...), cc[i]))
		if err != nil {
			return 0, err
		}
		if poc == cache.Miss {
			if evicted != -1 {
				return 0, fmt.Errorf("%w: blocks %s and %s both evicted by one miss", ErrNondeterministic, cc[evicted], cc[i])
			}
			evicted = i
		}
	}
	if evicted == -1 {
		return 0, fmt.Errorf("%w: no resident block evicted by a miss", ErrNondeterministic)
	}
	return evicted, nil
}

// walkKnownPrefix walks word through the output store under the word's
// shard lock, filling out[] and evolving cc for every symbol whose output
// is recorded. It returns the number of known symbols k and the block fed
// at each known position. The caller answers symbols 0..k-1 with zero
// prober work.
func (o *Oracle) walkKnownPrefix(sh *outShard, word, out []int, cc []int32, feed []int32) (k int, fed []int32, err error) {
	n := o.prober.Assoc()
	node := int32(0)
	for k < len(word) {
		ip := word[k]
		if ip < 0 || ip > n {
			return 0, feed, fmt.Errorf("polca: input %d out of range for associativity %d", ip, n)
		}
		c := sh.Child(node, ip)
		if c < 0 || !sh.Has(c) {
			break
		}
		b := mapInputID(ip, cc)
		op := int(sh.Val(c).out)
		out[k] = op
		if op != policy.Bottom {
			cc[op] = b
		}
		feed = append(feed, b)
		node = c
		k++
	}
	return k, feed, nil
}

// recordOutputs stores the outputs of word in the output store, under the
// word's shard lock.
func (o *Oracle) recordOutputs(word, out []int) {
	sh := o.out.Acquire(word)
	node := int32(0)
	for d, ip := range word {
		node = sh.Extend(node, ip)
		sh.Val(node).out = int16(out[d])
		sh.SetHas(node)
	}
	sh.Release()
}

// probesQueryTrie answers one output query over reset-rooted probes, for
// probers the engine does not drive: the recorded prefix skips its probes
// entirely, and the remaining symbols go through the block-id probe store
// (exact-match memo + single-flight).
func (o *Oracle) probesQueryTrie(ctx context.Context, word []int) ([]int, error) {
	n := o.prober.Assoc()
	out := make([]int, len(word))
	cc := append([]int32(nil), o.cc0IDs...)
	feed := make([]int32, 0, len(word))

	sh := o.out.Acquire(word)
	k, feed, err := o.walkKnownPrefix(sh, word, out, cc, feed)
	sh.Release()
	if err != nil {
		return nil, err
	}
	// A recorded symbol spares the probes this path would issue for it:
	// the access, plus n eviction probes for an Evct. Counting those keeps
	// MemoHits independent of whether a concurrent word sharing the prefix
	// recorded it first or is still probing it.
	spared := k
	for _, ip := range word[:k] {
		if ip == n {
			spared += n
		}
	}
	o.memoHits.Add(int64(spared))
	if k == len(word) {
		return out, nil
	}

	ic := feed // reuse the prefix's block ids as the probe id sequence
	icN := make([]blocks.Block, len(ic), len(word))
	for i, b := range ic {
		icN[i] = blocks.Interned(int(b))
	}
	for i := k; i < len(word); i++ {
		ip := word[i]
		if ip < 0 || ip > n {
			return nil, fmt.Errorf("polca: input %d out of range for associativity %d", ip, n)
		}
		b := mapInputID(ip, cc)
		ic = append(ic, b)
		icN = append(icN, blocks.Interned(int(b)))
		oc, err := o.probe(ctx, icN, ic)
		if err != nil {
			return nil, err
		}
		op, err := o.mapOutputTrie(ctx, ip, oc, ic, icN, cc)
		if err != nil {
			return nil, err
		}
		if op != policy.Bottom {
			cc[op] = b
		}
		out[i] = op
	}
	o.recordOutputs(word, out)
	return out, nil
}

// mapOutputTrie maps a cache outcome back to a policy output on the trie
// probe path, issuing the findEvicted probes by block id. Over a
// ProbeBatcher (a remote fleet, a replica pool) the eviction-probe group
// ships as one grouped call with identical memo and counter bookkeeping —
// see findEvictedTrieBatched.
func (o *Oracle) mapOutputTrie(ctx context.Context, ip int, oc cache.Outcome, ic []int32, icN []blocks.Block, cc []int32) (int, error) {
	n := o.prober.Assoc()
	if ip < n { // Ln(i): the block is cached, the access must hit
		if oc != cache.Hit {
			// Suspected measurement fault: re-measure (and correct the
			// memo) once before declaring nondeterminism.
			roc, rerr := o.reprobe(ctx, icN, ic)
			if rerr != nil {
				return 0, rerr
			}
			if roc != cache.Hit {
				return 0, fmt.Errorf("%w: access to cached block %s missed", ErrNondeterministic, icN[len(icN)-1])
			}
		}
		return policy.Bottom, nil
	}
	if oc != cache.Miss {
		roc, rerr := o.reprobe(ctx, icN, ic)
		if rerr != nil {
			return 0, rerr
		}
		if roc != cache.Miss {
			return 0, fmt.Errorf("%w: access to fresh block %s hit", ErrNondeterministic, icN[len(icN)-1])
		}
	}
	if bpr, ok := o.prober.(ProbeBatcher); ok {
		return o.findEvictedTrieBatched(ctx, bpr, ic, icN, cc)
	}
	scan := func(refresh bool) (int, error) {
		evicted := -1
		for i := 0; i < n; i++ {
			pids := append(append([]int32(nil), ic...), cc[i])
			pN := append(append([]blocks.Block(nil), icN...), blocks.Interned(int(cc[i])))
			var poc cache.Outcome
			var err error
			if refresh {
				poc, err = o.reprobe(ctx, pN, pids)
			} else {
				poc, err = o.probe(ctx, pN, pids)
			}
			if err != nil {
				return 0, err
			}
			if poc == cache.Miss {
				if evicted != -1 {
					return 0, fmt.Errorf("%w: blocks %s and %s both evicted by one miss",
						ErrNondeterministic, blocks.Interned(int(cc[evicted])), blocks.Interned(int(cc[i])))
				}
				evicted = i
			}
		}
		if evicted == -1 {
			return 0, fmt.Errorf("%w: no resident block evicted by a miss", ErrNondeterministic)
		}
		return evicted, nil
	}
	evicted, err := scan(false)
	if err != nil && errors.Is(err, ErrNondeterministic) {
		// An inconsistent eviction group means at least one probe in it is
		// wrong — re-measure the whole group before giving up.
		evicted, err = scan(true)
	}
	return evicted, err
}

// mapInputID is mapInput over dense block ids; the input must already be
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

// mapInput maps a policy input to a memory block given the tracked content
// (the paper's mapInput).
func mapInput(ip int, cc []blocks.Block, n int) (blocks.Block, error) {
	if ip < 0 || ip > n {
		return "", fmt.Errorf("polca: input %d out of range for associativity %d", ip, n)
	}
	if ip < n {
		return cc[ip], nil
	}
	return blocks.Fresh(cc), nil
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
