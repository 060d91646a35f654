package remote

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
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
	"repro/internal/qstore"
)

// memoMagic brands worker probe-memo snapshots ahead of the qstore payload,
// mirroring the oracle snapshot header (polca "POLCAQS") with its own magic
// so the two snapshot kinds can never be confused for one another.
const memoMagic = "POLCARM"

// memoVersion is the worker-level snapshot header version.
const memoVersion = 1

// WorkerConfig configures a probe worker.
type WorkerConfig struct {
	// ProbeCost sleeps this long per executed (non-memoized) probe,
	// simulating the measurement latency of a hardware backend. The
	// fan-out benchmarks use it: distribution pays off exactly when
	// probes cost wall-clock time, not CPU.
	ProbeCost time.Duration
	// Logf receives one line per notable event (engine creation, snapshot
	// load/save); nil disables logging.
	Logf func(format string, args ...any)
}

// Worker answers probe batches for simulator scopes over HTTP. Engines are
// created lazily per scope; each holds the compiled (or interpreted)
// simulator prober plus a lock-striped probe memo keyed by the probe word's
// dense block ids, so repeated words — across requests, across learns, and
// across snapshot-shipped restarts — execute the simulator once.
type Worker struct {
	cfg WorkerConfig

	mu      sync.Mutex
	engines map[string]*engine

	// costMu serializes ProbeCost payments: a worker emulates ONE pinned
	// measurement core, so concurrent requests must queue for its latency
	// rather than overlap their sleeps — otherwise a single worker would
	// scale with client concurrency and fan-out benchmarks would lie.
	costMu sync.Mutex

	probes   atomic.Int64
	executed atomic.Int64
	memoHits atomic.Int64
}

// engine is one scope's probing stack on a worker.
type engine struct {
	scope  string
	prober *polca.SimProber
	memo   *qstore.Store[int32, cache.Outcome]
}

// NewWorker builds a probe worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, engines: make(map[string]*engine)}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// engineFor returns (creating on first use) the engine for a scope.
func (w *Worker) engineFor(scope string) (*engine, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.engines[scope]; ok {
		return e, nil
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
	e := &engine{
		scope:  scope,
		prober: pr,
		memo:   qstore.New[int32, cache.Outcome](qstore.Options{Stripes: 8, Sync: true}),
	}
	w.engines[scope] = e
	w.logf("polcaworker: engine %s (compiled=%v)", scope, pr.Compiled())
	return e, nil
}

// memoKey converts a probe word into the memo's dense-id key.
func memoKey(q []blocks.Block) ([]int32, error) {
	key := make([]int32, len(q))
	for i, b := range q {
		id, err := blocks.Index(b)
		if err != nil {
			return nil, err
		}
		key[i] = int32(id)
	}
	return key, nil
}

// probe answers one reset-rooted query, from the memo unless fresh, and
// records the outcome. Execution runs on an independent session, so
// concurrent requests never contend on simulator state; the configured
// probe cost is paid per execution, serially, the way a pinned measurement
// core would pay it.
func (w *Worker) probe(ctx context.Context, e *engine, q []blocks.Block, fresh bool) (cache.Outcome, error) {
	w.probes.Add(1)
	key, err := memoKey(q)
	if err != nil {
		return cache.Miss, err
	}
	if !fresh {
		if oc, ok := e.memo.Get(key); ok {
			w.memoHits.Add(1)
			return oc, nil
		}
	}
	if err := w.payProbeCost(ctx); err != nil {
		return cache.Miss, err
	}
	sess, err := e.prober.NewSession()
	if err != nil {
		return cache.Miss, err
	}
	var last cache.Outcome
	for _, b := range q {
		if last, err = sess.Access(b); err != nil {
			return cache.Miss, err
		}
	}
	w.executed.Add(1)
	e.memo.Set(key, last)
	return last, nil
}

// payProbeCost sleeps the configured per-execution cost under costMu,
// honoring ctx while waiting for the timer (not for the lock — a pinned
// measurement core cannot abandon the probe it is running).
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
	Probes, Executed, MemoHits int64
}

// Totals reports the worker's lifetime counters.
func (w *Worker) Totals() WorkerTotals {
	return WorkerTotals{
		Probes:   w.probes.Load(),
		Executed: w.executed.Load(),
		MemoHits: w.memoHits.Load(),
	}
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/v1/status", w.handleStatus)
	mux.HandleFunc("/v1/probe", w.handleProbe)
	mux.HandleFunc("/v1/snapshot", w.handleSnapshot)
	return mux
}

func (w *Worker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	st := workerStatus{
		Scopes:   make(map[string]scopeStatus),
		Probes:   w.probes.Load(),
		Executed: w.executed.Load(),
		MemoHits: w.memoHits.Load(),
	}
	w.mu.Lock()
	for scope, e := range w.engines {
		st.Scopes[scope] = scopeStatus{
			Assoc:       e.prober.Assoc(),
			MemoEntries: e.memo.CountSet(),
			Compiled:    e.prober.Compiled(),
		}
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
	e, err := w.engineFor(req.Scope)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	ocs := make([]cache.Outcome, len(req.Queries))
	for i, q := range req.Queries {
		oc, err := w.probe(r.Context(), e, q, req.Fresh)
		if err != nil {
			// A canceled request is the client hedging or unwinding — any
			// status serves; malformed blocks are the client's bug.
			http.Error(rw, fmt.Sprintf("query %d: %v", i, err), http.StatusBadRequest)
			return
		}
		ocs[i] = oc
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(probeResponse{Outcomes: encodeOutcomes(ocs)}) //nolint:errcheck
}

// memoCodec snapshots the probe memo's outcome values.
type memoCodec struct{}

// AppendValue implements qstore.Codec.
func (memoCodec) AppendValue(dst []byte, v cache.Outcome) []byte {
	if v == cache.Hit {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeValue implements qstore.Codec.
func (memoCodec) DecodeValue(src []byte) (cache.Outcome, int, error) {
	if len(src) == 0 {
		return cache.Miss, 0, fmt.Errorf("truncated outcome value")
	}
	switch src[0] {
	case 0:
		return cache.Miss, 1, nil
	case 1:
		return cache.Hit, 1, nil
	}
	return cache.Miss, 0, fmt.Errorf("malformed outcome value %d", src[0])
}

// corruptf wraps a memo-snapshot header failure as qstore.ErrCorrupt, the
// same sentinel the qstore payload reports, so one errors.Is covers both.
func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, qstore.ErrCorrupt)...)
}

// WriteMemoSnapshot writes one scope's probe memo (header + qstore payload).
func (w *Worker) WriteMemoSnapshot(dst io.Writer, scope string) error {
	e, err := w.engineFor(scope)
	if err != nil {
		return err
	}
	var hdr []byte
	hdr = append(hdr, memoMagic...)
	hdr = binary.AppendUvarint(hdr, memoVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(scope)))
	hdr = append(hdr, scope...)
	if _, err := dst.Write(hdr); err != nil {
		return fmt.Errorf("remote: writing memo snapshot header: %w", err)
	}
	return e.memo.Save(dst, memoCodec{})
}

// LoadMemoSnapshot merges a probe-memo snapshot into one scope's memo. The
// qstore layer verifies the CRC before touching the store, so a truncated
// or corrupt body leaves the worker exactly as warm as it was.
func (w *Worker) LoadMemoSnapshot(src io.Reader, scope string) error {
	e, err := w.engineFor(scope)
	if err != nil {
		return err
	}
	br := bufio.NewReader(src)
	magic := make([]byte, len(memoMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return corruptf("remote: reading memo snapshot header: %v", err)
	}
	if string(magic) != memoMagic {
		return corruptf("remote: not a probe-memo snapshot (bad magic %q)", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return corruptf("remote: reading memo snapshot header: %v", err)
	}
	if version != memoVersion {
		return corruptf("remote: unsupported memo snapshot version %d (want %d)", version, memoVersion)
	}
	scopeLen, err := binary.ReadUvarint(br)
	if err != nil {
		return corruptf("remote: reading memo snapshot header: %v", err)
	}
	const maxScope = 1 << 16
	if scopeLen > maxScope {
		return corruptf("remote: implausible memo snapshot scope length %d", scopeLen)
	}
	got := make([]byte, scopeLen)
	if _, err := io.ReadFull(br, got); err != nil {
		return corruptf("remote: reading memo snapshot header: %v", err)
	}
	if string(got) != scope {
		return fmt.Errorf("%w: snapshot recorded for %q, this engine is %q", polca.ErrSnapshotScope, got, scope)
	}
	return e.memo.Load(br, memoCodec{})
}

func (w *Worker) handleSnapshot(rw http.ResponseWriter, r *http.Request) {
	scope := r.URL.Query().Get("scope")
	if scope == "" {
		http.Error(rw, "missing scope parameter", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		e, err := w.engineFor(scope)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		if e.memo.CountSet() == 0 {
			http.Error(rw, "no memo recorded for "+scope, http.StatusNotFound)
			return
		}
		rw.Header().Set("Content-Type", "application/octet-stream")
		if err := w.WriteMemoSnapshot(rw, scope); err != nil {
			w.logf("polcaworker: snapshot save %s: %v", scope, err)
		}
	case http.MethodPut:
		err := w.LoadMemoSnapshot(io.LimitReader(r.Body, 256<<20), scope)
		switch {
		case err == nil:
			rw.WriteHeader(http.StatusNoContent)
			w.logf("polcaworker: snapshot loaded for %s", scope)
		case errors.Is(err, polca.ErrSnapshotScope):
			http.Error(rw, err.Error(), http.StatusConflict)
		case errors.Is(err, qstore.ErrCorrupt):
			// The memo is untouched: the worker stays exactly as warm as
			// it was, and the shipper treats this worker as cold.
			http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
			w.logf("polcaworker: rejected damaged snapshot for %s: %v", scope, err)
		default:
			http.Error(rw, err.Error(), http.StatusBadRequest)
		}
	default:
		http.Error(rw, "GET or PUT only", http.StatusMethodNotAllowed)
	}
}
