package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/polca"
	"repro/internal/policy"
)

// WorkerConfig configures a probe worker.
type WorkerConfig struct {
	// ProbeCost sleeps this long per probe, simulating the measurement
	// latency of a hardware backend. The fan-out benchmarks use it:
	// distribution pays off exactly when probes cost wall-clock time, not
	// CPU.
	ProbeCost time.Duration
	// Logf receives one line per notable event (prober creation); nil
	// disables logging.
	Logf func(format string, args ...any)
}

// Worker answers probe batches for simulator scopes over HTTP. It keeps no
// answers: every query executes on a fresh session of the scope's
// simulator prober, which is compiled on first use and shared by all
// requests. Repeats are the oracle's job — its probe memo and snapshots
// are the one memo on the distributed path.
type Worker struct {
	cfg WorkerConfig

	mu      sync.Mutex
	probers map[string]*polca.SimProber

	// costMu serializes ProbeCost payments: a worker emulates ONE pinned
	// measurement core, so concurrent requests must queue for its latency
	// rather than overlap their sleeps — otherwise a single worker would
	// scale with client concurrency and fan-out benchmarks would lie.
	costMu sync.Mutex

	probes atomic.Int64
}

// NewWorker builds a probe worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, probers: make(map[string]*polca.SimProber)}
}

// proberFor returns (creating on first use) the simulator prober for a
// scope.
func (w *Worker) proberFor(scope string) (*polca.SimProber, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if pr, ok := w.probers[scope]; ok {
		return pr, nil
	}
	name, assoc, err := ParseSimScope(scope)
	if err != nil {
		return nil, err
	}
	pol, err := policy.New(name, assoc)
	if err != nil {
		return nil, err
	}
	pr := polca.NewSimProber(pol)
	w.probers[scope] = pr
	if w.cfg.Logf != nil {
		w.cfg.Logf("engine %s (compiled=%v)", scope, pr.Compiled())
	}
	return pr, nil
}

// probe executes one reset-rooted query on an independent session, so
// concurrent requests never contend on simulator state; the configured
// probe cost is paid first, serially, the way a pinned measurement core
// would pay it.
func (w *Worker) probe(ctx context.Context, pr *polca.SimProber, q []blocks.Block) (cache.Outcome, error) {
	if err := w.payProbeCost(ctx); err != nil {
		return cache.Miss, err
	}
	sess, err := pr.NewSession()
	if err != nil {
		return cache.Miss, err
	}
	var last cache.Outcome
	for _, b := range q {
		if last, err = sess.Access(b); err != nil {
			return cache.Miss, err
		}
	}
	w.probes.Add(1)
	return last, nil
}

// payProbeCost sleeps the configured per-probe cost under costMu, honoring
// ctx while waiting for the timer (not for the lock — a pinned measurement
// core cannot abandon the probe it is running).
func (w *Worker) payProbeCost(ctx context.Context) error {
	if w.cfg.ProbeCost <= 0 {
		return ctx.Err()
	}
	w.costMu.Lock()
	defer w.costMu.Unlock()
	t := time.NewTimer(w.cfg.ProbeCost)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// WorkerTotals are a worker's lifetime probe counters, as served on
// /v1/status; cmd/polcaworker prints them on drain.
type WorkerTotals struct {
	Probes int64
}

// Totals reports the worker's lifetime counters.
func (w *Worker) Totals() WorkerTotals {
	return WorkerTotals{Probes: w.probes.Load()}
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/v1/status", w.handleStatus)
	mux.HandleFunc("/v1/probe", w.handleProbe)
	return mux
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	st := workerStatus{
		Scopes: make(map[string]scopeStatus),
		Probes: w.probes.Load(),
	}
	w.mu.Lock()
	for scope, pr := range w.probers {
		st.Scopes[scope] = scopeStatus{Assoc: pr.Assoc(), Compiled: pr.Compiled()}
	}
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(st) //nolint:errcheck // client hangups only
}

func (w *Worker) handleProbe(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req probeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(rw, "malformed probe request: "+err.Error(), http.StatusBadRequest)
		return
	}
	pr, err := w.proberFor(req.Scope)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// Block names are checked before anything executes: the compiled
	// kernel's sessions panic on an empty name, and a malformed one is the
	// client's bug, not the worker's health.
	for i, q := range req.Queries {
		for _, b := range q {
			if _, err := blocks.Index(b); err != nil {
				http.Error(rw, fmt.Sprintf("query %d: %v", i, err), http.StatusBadRequest)
				return
			}
		}
	}
	ocs := make([]cache.Outcome, len(req.Queries))
	for i, q := range req.Queries {
		oc, err := w.probe(r.Context(), pr, q)
		if err != nil {
			// A canceled request is the client hedging or unwinding — any
			// status serves.
			http.Error(rw, fmt.Sprintf("query %d: %v", i, err), http.StatusBadRequest)
			return
		}
		ocs[i] = oc
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(probeResponse{Outcomes: encodeOutcomes(ocs)}) //nolint:errcheck
}
