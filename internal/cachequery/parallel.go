package cachequery

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/polca"
)

// NewReplicaFrontends builds n frontends over fresh CPU replicas, and
// provisions each one's backend for tgt on parallel goroutines (provisioning
// and calibration are themselves the first beneficiaries of replication).
// Replicas built from the same configuration and seed answer identically up
// to latency noise, which repetition voting absorbs exactly as it does on a
// single CPU. Replica frontends keep no result cache: they serve the oracle,
// whose probe memo answers every repeated probe, so each probe executes.
func NewReplicaFrontends(newCPU func() *hw.CPU, opt BackendOptions, tgt Target, n int) ([]*Frontend, error) {
	if n < 1 {
		n = 1
	}
	fronts := make([]*Frontend, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fronts[i] = NewFrontend(newCPU(), opt)
			fronts[i].SetResultCache(false)
			_, errs[i] = fronts[i].Backend(tgt)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fronts, nil
}

// DefaultQuarantineThreshold is how many consecutive transient failures a
// pool slot accumulates before the pool quarantines it.
const DefaultQuarantineThreshold = 3

// DefaultProbationCooldown is how long a quarantined slot sits out before
// probation re-admits it. Long enough that a dying slot costs at most one
// wasted probe per cooldown, short enough that a recovered replica
// rejoins a long learn within a couple of seconds.
const DefaultProbationCooldown = 500 * time.Millisecond

// PoolSlot is one slot of a ProberPool: the probing interface (possibly
// wrapped by a fault injector) plus its health score. fails is only touched
// by the goroutine currently holding the slot, so it needs no atomics.
type PoolSlot struct {
	p         polca.Prober
	id        int
	fails     int  // consecutive transient failures
	probation bool // re-admitted after quarantine; one strike re-quarantines
}

// Prober returns the slot's probing interface.
func (s *PoolSlot) Prober() polca.Prober { return s.p }

// ID returns the slot's index in the pool as built.
func (s *PoolSlot) ID() int { return s.id }

// poolConfig collects the PoolOption knobs shared by ProberPool and
// ParallelProber.
type poolConfig struct {
	threshold int
	cooldown  time.Duration
	wrap      func(int, polca.Prober) polca.Prober
}

func defaultPoolConfig() poolConfig {
	return poolConfig{threshold: DefaultQuarantineThreshold, cooldown: DefaultProbationCooldown}
}

// PoolOption configures a ProberPool (and ParallelProber on top of it).
type PoolOption func(*poolConfig)

// WithQuarantineThreshold overrides how many consecutive transient failures
// quarantine a slot; n <= 0 restores DefaultQuarantineThreshold.
func WithQuarantineThreshold(n int) PoolOption {
	return func(c *poolConfig) {
		if n <= 0 {
			n = DefaultQuarantineThreshold
		}
		c.threshold = n
	}
}

// WithProbationCooldown overrides how long a quarantined slot sits out
// before probation re-admits it. d <= 0 disables probation entirely,
// restoring permanent quarantine: once the last live slot is quarantined
// the pool fails probes terminally.
func WithProbationCooldown(d time.Duration) PoolOption {
	return func(c *poolConfig) { c.cooldown = d }
}

// WithReplicaWrapper interposes wrap between the pool and each slot's
// prober — the hook internal/faulty uses to inject per-replica faults
// (including replica death) under the pool's quarantine logic.
func WithReplicaWrapper(wrap func(i int, p polca.Prober) polca.Prober) PoolOption {
	return func(c *poolConfig) { c.wrap = wrap }
}

// ProberPool multiplexes reset-rooted probes over a pool of independent
// probers, making Probe safe for concurrent use. Every probe is
// reset-prefixed, which is what makes pooling sound: slots hold no
// cross-probe state, so any free slot can answer any probe. The pool is the
// health layer under CPU-replica pools (ParallelProber).
//
// The pool scores slot health: a slot that fails transiently threshold-many
// times in a row is quarantined — removed from rotation — and the probe
// that noticed is re-executed on another slot, so a dying slot shrinks the
// pool instead of failing the run. Quarantine is probation, not a death
// sentence: after a cooldown the slot is re-admitted with one strike left,
// so a slot that genuinely recovered (a restarted worker, a transient
// network partition) rejoins at the cost of one probe, while a slot that is
// still dead re-quarantines on its first failure — invisibly when other
// slots are live. Only when no slot is live and a probe's failure cannot be
// re-executed elsewhere does the error propagate (transiently, so the
// oracle's retry policy paces re-attempts against future re-admissions).
// Non-transient errors (measurement nondeterminism, protocol violations,
// cancellation) propagate immediately: they indict the run, not the slot.
type ProberPool struct {
	pool    chan *PoolSlot
	slots   []*PoolSlot
	assoc   int
	content []blocks.Block

	cfg poolConfig

	live        atomic.Int32
	quarantined atomic.Int32
	readmitted  atomic.Int32
	dead        chan struct{} // closed when the pool dies for good (probation off)
	deadOnce    sync.Once

	mu     sync.Mutex
	timers map[*PoolSlot]*time.Timer
	closed bool
}

// NewProberPool pools the given probers. All probers must agree on
// associativity; the pool's initial content is the first prober's.
func NewProberPool(probers []polca.Prober, opts ...PoolOption) (*ProberPool, error) {
	if len(probers) == 0 {
		return nil, fmt.Errorf("cachequery: prober pool needs at least one prober")
	}
	cfg := defaultPoolConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	p := &ProberPool{
		pool:    make(chan *PoolSlot, len(probers)),
		assoc:   probers[0].Assoc(),
		content: append([]blocks.Block(nil), probers[0].InitialContent()...),
		cfg:     cfg,
		dead:    make(chan struct{}),
		timers:  make(map[*PoolSlot]*time.Timer),
	}
	for i, pr := range probers {
		if pr.Assoc() != p.assoc {
			return nil, fmt.Errorf("cachequery: pool slot %d has associativity %d, slot 0 has %d", i, pr.Assoc(), p.assoc)
		}
		if cfg.wrap != nil {
			pr = cfg.wrap(i, pr)
		}
		s := &PoolSlot{p: pr, id: i}
		p.slots = append(p.slots, s)
		p.pool <- s
	}
	p.live.Store(int32(len(probers)))
	return p, nil
}

// Size returns the pool size as built (before any quarantine).
func (p *ProberPool) Size() int { return len(p.slots) }

// Live returns how many slots are in rotation right now.
func (p *ProberPool) Live() int { return int(p.live.Load()) }

// Quarantined returns how many quarantines have happened (cumulative: with
// probation a slot that keeps dying is counted once per re-quarantine).
func (p *ProberPool) Quarantined() int { return int(p.quarantined.Load()) }

// Readmitted returns how many probation re-admissions have happened.
func (p *ProberPool) Readmitted() int { return int(p.readmitted.Load()) }

// Close cancels pending probation timers. Quarantined slots are no longer
// re-admitted; live slots keep serving, and if none are live the pool dies
// for good so blocked probes fail fast. Safe to call more than once.
func (p *ProberPool) Close() {
	p.mu.Lock()
	p.closed = true
	for s, t := range p.timers {
		t.Stop()
		delete(p.timers, s)
	}
	p.mu.Unlock()
	if p.live.Load() == 0 {
		p.deadOnce.Do(func() { close(p.dead) })
	}
}

// Assoc implements polca.Prober.
func (p *ProberPool) Assoc() int { return p.assoc }

// InitialContent implements polca.Prober.
func (p *ProberPool) InitialContent() []blocks.Block {
	return append([]blocks.Block(nil), p.content...)
}

// Checkout takes a slot out of the pool, waiting until one is free (a
// quarantined slot's probation re-admission counts). It fails fast when the
// caller's context is done or the pool has died for good (probation
// disabled and every slot quarantined). When every slot is quarantined but
// probation is still pending, Checkout waits out at most ~1.5 cooldowns for
// a re-admission to land and then fails with a transient error: the retry
// policies above pace bounded re-attempts against future re-admissions, so
// a whole-pool blip shorter than the retry budget heals invisibly while a
// pool that stays dark fails the run loudly instead of parking it forever.
func (p *ProberPool) Checkout(ctx context.Context) (*PoolSlot, error) {
	select {
	case s := <-p.pool:
		return s, nil
	default:
	}
	var darkC <-chan time.Time
	if p.cfg.cooldown > 0 {
		// ~1.5 cooldowns gives the nearest probation timer a full chance to
		// land before the checkout gives up; the cap keeps hour-scale
		// cooldowns from turning the give-up into a park.
		wait := p.cfg.cooldown + p.cfg.cooldown/2
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		t := time.NewTicker(wait)
		defer t.Stop()
		darkC = t.C
	}
	for {
		select {
		case s := <-p.pool:
			return s, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.dead:
			return nil, fmt.Errorf("cachequery: all %d pool slots quarantined", len(p.slots))
		case <-darkC:
			if p.live.Load() == 0 {
				return nil, &darkPoolErr{n: len(p.slots)}
			}
			// Slots are live, just busy — keep waiting for one to free up.
		}
	}
}

// darkPoolErr reports a pool whose every slot is quarantined while
// probation re-admissions are still pending. It is transient: retrying
// races the caller against the next re-admission rather than failing the
// run on the spot.
type darkPoolErr struct{ n int }

func (e *darkPoolErr) Error() string {
	return fmt.Sprintf("cachequery: all %d pool slots quarantined (probation pending)", e.n)
}

// Transient marks the dark pool retryable: probation may re-admit a slot.
func (e *darkPoolErr) Transient() bool { return true }

// Succeed returns a slot to the pool with a clean health score.
func (p *ProberPool) Succeed(s *PoolSlot) {
	s.fails = 0
	s.probation = false
	p.pool <- s
}

// Release returns a slot to the pool without touching its health score —
// for probes that failed for reasons that do not indict the slot
// (non-transient errors, cancellation, a lost hedge race).
func (p *ProberPool) Release(s *PoolSlot) {
	p.pool <- s
}

// Fail records one transient failure against a slot. It reports whether the
// slot was quarantined (true: the slot left rotation, re-execute the probe
// on another slot if any is live) or returned to the pool still counting
// strikes (false: propagate the error so systemic faults stay visible).
func (p *ProberPool) Fail(s *PoolSlot) bool {
	s.fails++
	if s.probation || s.fails >= p.cfg.threshold {
		p.quarantine(s)
		return true
	}
	p.pool <- s
	return false
}

// quarantine retires a slot: probation schedules its re-admission after the
// cooldown; with probation disabled the pool permanently shrinks by one and
// dies when the last slot goes.
func (p *ProberPool) quarantine(s *PoolSlot) {
	p.quarantined.Add(1)
	n := p.live.Add(-1)
	if p.cfg.cooldown <= 0 {
		if n == 0 {
			p.deadOnce.Do(func() { close(p.dead) })
		}
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		if n == 0 {
			p.deadOnce.Do(func() { close(p.dead) })
		}
		return
	}
	s.fails = 0
	s.probation = true
	p.timers[s] = time.AfterFunc(p.cfg.cooldown, func() { p.readmit(s) })
}

// readmit puts a quarantined slot back into rotation on probation.
func (p *ProberPool) readmit(s *PoolSlot) {
	p.mu.Lock()
	if _, ok := p.timers[s]; !ok || p.closed {
		p.mu.Unlock()
		return
	}
	delete(p.timers, s)
	p.mu.Unlock()
	p.readmitted.Add(1)
	p.live.Add(1)
	p.pool <- s
}

// run executes fn against pool slots until it succeeds, fails terminally,
// or the transient-failure budget is spent. A slot that pushes its
// consecutive-failure score to the threshold (or fails its probation probe)
// is quarantined and the probe transparently re-executes on another slot;
// below the threshold the transient error propagates (the oracle's retry
// policy backs off and re-enters here), so a systemic fault is still
// visible upstream while a single dying slot is not.
func (p *ProberPool) run(ctx context.Context, fn func(polca.Prober) error) error {
	for {
		s, err := p.Checkout(ctx)
		if err != nil {
			return err
		}
		err = fn(s.p)
		if err == nil {
			p.Succeed(s)
			return nil
		}
		if !polca.IsTransient(err) {
			p.Release(s)
			return err
		}
		if p.Fail(s) && p.live.Load() > 0 {
			continue // invisible to the caller: re-probe on another slot
		}
		return err
	}
}

// Probe implements polca.Prober by checking a slot out of the pool for
// the duration of one probe. It blocks while all slots are busy.
func (p *ProberPool) Probe(ctx context.Context, q []blocks.Block) (oc cache.Outcome, err error) {
	err = p.run(ctx, func(s polca.Prober) (err error) {
		oc, err = s.Probe(ctx, q)
		return err
	})
	return oc, err
}

// ProbeFresh implements polca.FreshProber: the checked-out slot re-executes
// the probe, bypassing any result cache below it.
func (p *ProberPool) ProbeFresh(ctx context.Context, q []blocks.Block) (oc cache.Outcome, err error) {
	err = p.run(ctx, func(s polca.Prober) (err error) {
		if fp, ok := s.(polca.FreshProber); ok {
			oc, err = fp.ProbeFresh(ctx, q)
		} else {
			oc, err = s.Probe(ctx, q)
		}
		return err
	})
	return oc, err
}

// ProbeTrace implements polca.Prober: the whole run executes on one
// checked-out slot, since its profiled outcomes come from one pass over
// one cache. A slot quarantined mid-run re-executes the run elsewhere.
func (p *ProberPool) ProbeTrace(ctx context.Context, q []blocks.Block, k int) (tr []cache.Outcome, err error) {
	err = p.run(ctx, func(s polca.Prober) (err error) {
		tr, err = s.ProbeTrace(ctx, q, k)
		return err
	})
	return tr, err
}

// ConcurrentProbes implements polca.ConcurrentProber.
func (p *ProberPool) ConcurrentProbes() bool { return len(p.slots) > 1 }

var (
	_ polca.ConcurrentProber = (*ProberPool)(nil)
	_ polca.FreshProber      = (*ProberPool)(nil)
)

// ParallelProber multiplexes reset-rooted probes over a pool of independent
// CPU replicas. A simulated CPU — like the single hardware thread
// CacheQuery pins itself to — is strictly serial, so concurrency has to
// come from replication: every replica is a full (CPU, frontend, backend)
// stack built from the same configuration. Repeated probes are the
// oracle's to answer, from its probe memo, so replicas keep no result
// cache. polca.Oracle detects the ConcurrentProbes marker and answers
// batched output queries on parallel goroutines.
//
// Health scoring, quarantine and probation re-admission are the embedded
// ProberPool's; ParallelProber adds the replica construction and the
// frontend counter aggregation.
type ParallelProber struct {
	*ProberPool
	probers []*Prober
}

// NewParallelProber pools one prober per replica frontend for one target set
// and reset (build the frontends once with NewReplicaFrontends and reuse
// them across reset candidates — the provisioned backends carry over).
func NewParallelProber(fronts []*Frontend, tgt Target, rst Reset, opts ...PoolOption) (*ParallelProber, error) {
	if len(fronts) == 0 {
		return nil, fmt.Errorf("cachequery: parallel prober needs at least one replica")
	}
	probers := make([]*Prober, len(fronts))
	raw := make([]polca.Prober, len(fronts))
	for i, f := range fronts {
		pr, err := NewProber(f, tgt, rst)
		if err != nil {
			return nil, err
		}
		probers[i] = pr
		raw[i] = pr
	}
	pool, err := NewProberPool(raw, opts...)
	if err != nil {
		return nil, err
	}
	return &ParallelProber{ProberPool: pool, probers: probers}, nil
}

// Replicas returns the pool size as built (before any quarantine).
func (p *ParallelProber) Replicas() int { return p.Size() }

// FrontendStats aggregates the counters of every replica's frontend
// (quarantined replicas included — their pre-quarantine work counts). Only
// call it while no probes are in flight.
func (p *ParallelProber) FrontendStats() FrontendStats {
	var total FrontendStats
	for _, r := range p.probers {
		total.Add(r.f.Stats())
	}
	return total
}
