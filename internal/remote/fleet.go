package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/cachequery"
	"repro/internal/polca"
)

// RemoteProber is the client of one probe worker: it implements
// polca.Prober (plus the batch extension) by POSTing probe requests to the
// worker's /v1/probe endpoint. It is stateless beyond its counters —
// probes are reset-rooted, so any worker can answer any probe — and safe
// for concurrent use. Fleets pool several of them behind the
// shared health-scored cachequery.ProberPool; a single RemoteProber is
// also a fine serial prober for one remote box.
type RemoteProber struct {
	base  string // http://host:port
	hc    *http.Client
	scope string
	assoc int

	probes  atomic.Int64 // queries answered
	batches atomic.Int64 // requests issued
	fails   atomic.Int64 // requests failed
}

// normalizeAddr accepts "host:port" or a full http(s) URL.
func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// NewRemoteProber builds the client prober for one worker and one scope
// ("sim:<policy>-<assoc>"). The scope determines associativity and initial
// content locally — the worker is not contacted until the first probe.
func NewRemoteProber(addr, scope string, hc *http.Client) (*RemoteProber, error) {
	_, assoc, err := ParseSimScope(scope)
	if err != nil {
		return nil, err
	}
	if hc == nil {
		hc = &http.Client{Timeout: 2 * time.Minute}
	}
	return &RemoteProber{base: normalizeAddr(addr), hc: hc, scope: scope, assoc: assoc}, nil
}

// Addr returns the worker's base URL.
func (p *RemoteProber) Addr() string { return p.base }

// Assoc implements polca.Prober.
func (p *RemoteProber) Assoc() int { return p.assoc }

// InitialContent implements polca.Prober: the simulator reset fills lines
// 0..n-1 with the first n blocks, on the worker exactly as locally.
func (p *RemoteProber) InitialContent() []blocks.Block { return blocks.Ordered(p.assoc) }

// post ships one probe request and decodes the outcomes. Connection
// failures, timeouts, 5xx answers and truncated bodies come back transient
// (another worker may answer); 4xx answers are protocol-level bugs and
// propagate as they are.
func (p *RemoteProber) post(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	p.batches.Add(1)
	body, err := json.Marshal(probeRequest{Scope: p.scope, Queries: qs})
	if err != nil {
		return nil, fmt.Errorf("remote: encoding probe request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/v1/probe", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.hc.Do(req)
	if err != nil {
		p.fails.Add(1)
		if ctx.Err() != nil {
			return nil, ctx.Err() // cancellation is the caller's, not the worker's
		}
		return nil, transient(fmt.Errorf("remote: %s: %w", p.base, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.fails.Add(1)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		err := fmt.Errorf("remote: %s answered %s: %s", p.base, resp.Status, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 500 {
			return nil, transient(err)
		}
		return nil, err
	}
	var pr probeResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		p.fails.Add(1)
		return nil, transient(fmt.Errorf("remote: %s: decoding probe response: %w", p.base, err))
	}
	out, err := decodeOutcomes(pr.Outcomes, len(qs))
	if err != nil {
		p.fails.Add(1)
		return nil, transient(err)
	}
	p.probes.Add(int64(len(qs)))
	return out, nil
}

// Probe implements polca.Prober.
func (p *RemoteProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	out, err := p.post(ctx, [][]blocks.Block{q})
	if err != nil {
		return cache.Miss, err
	}
	return out[0], nil
}

// ProbeBatch implements polca.ProbeBatcher: one request, results in
// submission order.
func (p *RemoteProber) ProbeBatch(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	return p.post(ctx, qs)
}

// Healthz checks the worker's health endpoint.
func (p *RemoteProber) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return transient(fmt.Errorf("remote: %s /healthz answered %s", p.base, resp.Status))
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // keep-alive drain
	return nil
}

var _ polca.ProbeBatcher = (*RemoteProber)(nil)

// FleetOptions configures a worker fleet.
type FleetOptions struct {
	// Slots is the number of sub-batches in flight per worker (default 2:
	// one executing, one queued behind it keeps a worker busy across the
	// client's round trip).
	Slots int
	// HedgeAfter re-dispatches a sub-batch that has not answered within
	// this duration onto a second worker, first answer wins — probes are
	// deterministic, so the duplicate is pure latency insurance against
	// stragglers. 0 selects the default (2s); negative disables hedging.
	HedgeAfter time.Duration
	// Retry overrides the fleet's transient-failure retry policy around
	// each sub-batch (polca.DefaultRetryPolicy otherwise). This is the
	// batch-level safety net; the oracle's own per-probe retry still
	// applies above the fleet on the serial probe path.
	Retry *polca.RetryPolicy
	// QuarantineThreshold and Cooldown tune the shared pool health layer;
	// zero values keep cachequery's defaults (3 strikes, 500ms probation).
	QuarantineThreshold int
	Cooldown            time.Duration
	// Timeout bounds each HTTP request (default 2m — generous, because a
	// large sub-batch on a probe-cost worker legitimately takes a while).
	Timeout time.Duration
	// Logf receives resilience events (quarantines survived); nil
	// disables logging.
	Logf func(format string, args ...any)
}

// FleetStats is a point-in-time snapshot of the fleet's resilience and
// distribution counters.
type FleetStats struct {
	Hedges      int64         // sub-batches re-dispatched onto a second worker
	Retries     int64         // transient sub-batch failures absorbed by backoff
	Quarantined int           // pool quarantines (cumulative, probation included)
	Readmitted  int           // probation re-admissions
	Workers     []WorkerStats // per-worker breakdown, fleet order
}

// WorkerStats is one worker's share of the fleet's traffic.
type WorkerStats struct {
	Addr     string `json:"addr"`
	Probes   int64  `json:"probes"`   // queries this worker answered
	Requests int64  `json:"requests"` // HTTP probe requests issued to it
	Failures int64  `json:"failures"` // requests that failed
}

// Fleet fans probes over a set of remote workers. It implements
// polca.Prober, polca.ConcurrentProber, polca.ProbeBatcher and
// polca.FleetWidther:
//
//   - ProbeBatch splits the batch into contiguous sub-batches (one per
//     live pool slot), dispatches them concurrently, and merges answers
//     back in submission order — the ordering invariant that keeps
//     learner trajectories bit-identical to single-box runs.
//   - Worker health runs on the shared cachequery.ProberPool: a worker
//     that keeps failing is quarantined and its sub-batch transparently
//     re-executes elsewhere; probation re-admits it after a cooldown.
//   - A sub-batch that stalls past HedgeAfter is hedged onto a second
//     worker; whichever answers first wins (answers are deterministic, so
//     the race has one outcome).
//   - Transient failures retry under seeded exponential backoff.
//
// FleetWidth reports live slots (workers × per-worker slots), which the
// oracle surfaces through BatchHint so the learner's chunk width scales
// with the fleet instead of the lockstep constant.
type Fleet struct {
	scope   string
	assoc   int
	workers []*RemoteProber
	pool    *cachequery.ProberPool
	slots   int
	hedge   time.Duration
	retry   polca.RetryPolicy
	logf    func(string, ...any)

	hedges  atomic.Int64
	retries atomic.Int64
}

// NewFleet builds the fleet client for the given worker addresses and
// scope. Workers are not contacted; pair with Ping for a fail-fast boot.
func NewFleet(addrs []string, scope string, opt FleetOptions) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: fleet needs at least one worker address")
	}
	if opt.Slots <= 0 {
		opt.Slots = 2
	}
	if opt.HedgeAfter == 0 {
		opt.HedgeAfter = 2 * time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Minute
	}
	retry := polca.DefaultRetryPolicy
	if opt.Retry != nil {
		retry = *opt.Retry
	}
	hc := &http.Client{Timeout: opt.Timeout}
	f := &Fleet{
		scope: scope,
		slots: opt.Slots,
		hedge: opt.HedgeAfter,
		retry: retry,
		logf:  opt.Logf,
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	for _, addr := range addrs {
		w, err := NewRemoteProber(addr, scope, hc)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	f.assoc = f.workers[0].assoc

	// One pool slot per (worker, slot): slot id s serves worker s % len.
	raw := make([]polca.Prober, len(addrs)*opt.Slots)
	for i := range raw {
		raw[i] = f.workers[i%len(f.workers)]
	}
	var poolOpts []cachequery.PoolOption
	if opt.QuarantineThreshold > 0 {
		poolOpts = append(poolOpts, cachequery.WithQuarantineThreshold(opt.QuarantineThreshold))
	}
	if opt.Cooldown != 0 {
		poolOpts = append(poolOpts, cachequery.WithProbationCooldown(opt.Cooldown))
	}
	pool, err := cachequery.NewProberPool(raw, poolOpts...)
	if err != nil {
		return nil, err
	}
	f.pool = pool
	return f, nil
}

// Ping verifies every worker answers its health endpoint.
func (f *Fleet) Ping(ctx context.Context) error {
	for _, w := range f.workers {
		if err := w.Healthz(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the pool's probation timers.
func (f *Fleet) Close() { f.pool.Close() }

// Scope returns the fleet's probe scope.
func (f *Fleet) Scope() string { return f.scope }

// Workers returns the fleet size as configured.
func (f *Fleet) Workers() int { return len(f.workers) }

// Stats snapshots the fleet's resilience and distribution counters.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{
		Hedges:      f.hedges.Load(),
		Retries:     f.retries.Load(),
		Quarantined: f.pool.Quarantined(),
		Readmitted:  f.pool.Readmitted(),
	}
	for _, w := range f.workers {
		st.Workers = append(st.Workers, WorkerStats{
			Addr:     w.base,
			Probes:   w.probes.Load(),
			Requests: w.batches.Load(),
			Failures: w.fails.Load(),
		})
	}
	return st
}

// Assoc implements polca.Prober.
func (f *Fleet) Assoc() int { return f.assoc }

// InitialContent implements polca.Prober.
func (f *Fleet) InitialContent() []blocks.Block { return blocks.Ordered(f.assoc) }

// ConcurrentProbes implements polca.ConcurrentProber.
func (f *Fleet) ConcurrentProbes() bool { return true }

// FleetWidth implements polca.FleetWidther: the live pool width (workers ×
// per-worker slots, minus quarantined slots) the learner's batch hint
// scales to.
func (f *Fleet) FleetWidth() int {
	if n := f.pool.Live(); n > 0 {
		return n
	}
	return 1
}

// Probe implements polca.Prober.
func (f *Fleet) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	out, err := f.do(ctx, [][]blocks.Block{q})
	if err != nil {
		return cache.Miss, err
	}
	return out[0], nil
}

// ProbeBatch implements polca.ProbeBatcher: contiguous sub-batches, one
// per live slot, dispatched concurrently; answers merge by index, so the
// result order is the submission order regardless of which worker answered
// what and in which order the sub-batches landed.
func (f *Fleet) ProbeBatch(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	width := f.pool.Live()
	if width < 1 {
		width = 1
	}
	if width > len(qs) {
		width = len(qs)
	}
	out := make([]cache.Outcome, len(qs))
	errs := make([]error, width)
	var wg sync.WaitGroup
	for c := 0; c < width; c++ {
		lo, hi := chunkBounds(len(qs), width, c)
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			res, err := f.do(ctx, qs[lo:hi])
			if err != nil {
				errs[c] = err
				return
			}
			copy(out[lo:hi], res)
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chunkBounds splits n items into width contiguous chunks, the first n%width
// chunks one longer — the deterministic split ProbeBatch fans out.
func chunkBounds(n, width, c int) (lo, hi int) {
	base, rem := n/width, n%width
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

// do answers one sub-batch: hedged dispatch with transparent quarantine
// re-execution, wrapped in the fleet's seeded-backoff retry for transient
// failures that survive the pool (systemic faults, a fully-dark fleet
// waiting out probation).
func (f *Fleet) do(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	var out []cache.Outcome
	_, err := f.retry.Do(ctx, &f.retries, func() (cache.Outcome, error) {
		res, err := f.doOnce(ctx, qs)
		if err != nil {
			return cache.Miss, err
		}
		out = res
		return cache.Miss, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// doOnce runs one hedged dispatch: a primary attempt, and past the hedge
// deadline a duplicate on another worker; the first answer wins. Probes
// are deterministic, so both attempts agree and the loser is simply
// canceled.
func (f *Fleet) doOnce(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		out []cache.Outcome
		err error
	}
	ch := make(chan result, 2)
	launch := func() {
		out, err := f.attempt(actx, qs)
		ch <- result{out, err}
	}
	go launch()
	inflight := 1
	var hedgeC <-chan time.Time
	if f.hedge > 0 {
		t := time.NewTimer(f.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				return r.out, nil
			}
			// Prefer reporting the real failure over the cancellation the
			// winner inflicted on the loser.
			if firstErr == nil || ctx.Err() == nil && polca.IsTransient(r.err) {
				firstErr = r.err
			}
			if inflight == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			f.hedges.Add(1)
			inflight++
			go launch()
		}
	}
}

// attempt executes the sub-batch on one checked-out slot, mirroring the
// pool's quarantine-and-continue semantics: a slot that crosses its strike
// threshold is quarantined and the sub-batch transparently re-executes on
// another slot; below the threshold the transient error propagates to the
// retry layer.
func (f *Fleet) attempt(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	for {
		s, err := f.pool.Checkout(ctx)
		if err != nil {
			return nil, err
		}
		w := s.Prober().(*RemoteProber)
		out, err := w.post(ctx, qs)
		if err == nil {
			f.pool.Succeed(s)
			return out, nil
		}
		if ctx.Err() != nil {
			// Canceled mid-flight (lost hedge race, caller unwinding): the
			// slot is not to blame.
			f.pool.Release(s)
			return nil, err
		}
		if !polca.IsTransient(err) {
			f.pool.Release(s)
			return nil, err
		}
		if f.pool.Fail(s) {
			f.logf("remote: worker %s quarantined (slot %d)", w.base, s.ID())
			if f.pool.Live() > 0 {
				continue
			}
		}
		return nil, err
	}
}

var (
	_ polca.ConcurrentProber = (*Fleet)(nil)
	_ polca.ProbeBatcher     = (*Fleet)(nil)
)
