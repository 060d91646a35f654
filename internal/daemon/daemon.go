// Package daemon implements polcad, the learning-as-a-service HTTP daemon:
// the whole CacheQuery reproduction pipeline — membership/output queries,
// learning jobs with live progress, and the model-artifact zoo — served
// from one long-running multi-tenant process.
//
// The daemon is multi-tenant by construction. All clients of a
// (policy, associativity) pair share one engine: a single Polca oracle over
// one compiled policy.Table, backed by one qstore prefix trie, so every
// answer any client ever obtained is memoized for all of them. Duplicate
// in-flight query requests are single-flighted across tenants (the second
// request waits for the first instead of re-executing), per-tenant
// token-bucket quotas bound what any one client can burn, and graceful
// drain on SIGTERM cancels running jobs at a query boundary and writes a
// final snapshot of every engine, so a restarted daemon resumes warm.
//
// Persistence rides the snapshot layer of internal/qstore: engines load
// warm snapshots on boot, checkpoint periodically during learning jobs, and
// save on drain — all through the same scope-checked, CRC-verified,
// atomic-rename path as cmd/polca's -resume flag, so daemon snapshots and
// CLI snapshots are interchangeable.
//
// See docs/API.md for the full endpoint reference and cmd/polcad for the
// binary.
package daemon

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/polca"
	"repro/internal/policy"
)

// Config tunes a Server. The zero value serves queries and jobs from
// memory with no persistence and no quotas.
type Config struct {
	// ModelsDir is browsed by GET /v1/models and receives the
	// "<policy>-<assoc>.learned.json" artifact of every completed learning
	// job. Empty disables the models endpoints' filesystem side.
	ModelsDir string
	// SnapshotDir, when set, persists one qstore snapshot per engine:
	// loaded (scope-checked) on engine creation, checkpointed every
	// CheckpointEvery output queries during jobs, and saved on drain.
	SnapshotDir string
	// CheckpointEvery is the auto-checkpoint cadence in output queries
	// (default 256; requires SnapshotDir).
	CheckpointEvery int
	// QuotaRate is the per-tenant token refill rate in tokens per second;
	// 0 disables quotas. Queries cost one token per word, job submissions
	// cost JobCost.
	QuotaRate float64
	// QuotaBurst is the per-tenant bucket capacity (default 64 when
	// QuotaRate is set).
	QuotaBurst float64
	// Sim configures the simulator stack under every engine: fault
	// injection, retry policy.
	Sim core.SimOptions
	// EventInterval is the SSE progress cadence (default 250ms).
	EventInterval time.Duration
	// Logf receives one line per notable daemon event (boot, engine
	// creation, job transitions, drain). Nil discards them.
	Logf func(format string, args ...any)
}

// JobCost is the quota charge of one job submission, in tokens. Learning
// runs thousands of backend probes, so a job is priced far above a query.
const JobCost = 10

// Server is the daemon state shared by every request: the engine registry,
// the job table, the per-tenant quota buckets and the query single-flight
// group. Create with New, serve via Handler, stop with Close.
type Server struct {
	cfg   Config
	start time.Time

	// baseCtx is canceled first thing in Close: jobs and SSE streams
	// derive from it, so drain unwinds them at the next query boundary.
	baseCtx  context.Context
	baseStop context.CancelFunc

	mu      sync.Mutex
	engines map[engineKey]*engine
	jobs    map[string]*job
	jobSeq  int
	closed  bool

	jobWG  sync.WaitGroup
	quotas *quotaTable
	flight *flightGroup
}

type engineKey struct {
	policy string
	assoc  int
}

// engine is the shared per-(policy, assoc) serving unit: one oracle over
// one compiled table and one prefix-trie query store, used by every query
// request and learning job for that pair.
type engine struct {
	policy   string // canonical name
	assoc    int
	oracle   *polca.Oracle
	scope    string
	snapPath string // "" = no persistence
	warm     bool   // a snapshot was loaded at creation
	created  time.Time
	snapMu   sync.Mutex // serializes explicit (non-checkpointer) snapshot saves
}

// saveSnapshotFor writes eng's store to its snapshot path through the
// shared atomic-rename path. Callers hold eng.snapMu via
// Server.saveEngineSnapshot.
func saveSnapshotFor(eng *engine) error {
	return core.SaveOracleSnapshot(eng.oracle, eng.snapPath, eng.scope)
}

// New builds a Server from cfg, applying defaults. No goroutines start
// until the first job; engines are created lazily on first use.
func New(cfg Config) *Server {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.QuotaRate > 0 && cfg.QuotaBurst <= 0 {
		cfg.QuotaBurst = 64
	}
	if cfg.EventInterval <= 0 {
		cfg.EventInterval = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		start:    time.Now(),
		baseCtx:  ctx,
		baseStop: stop,
		engines:  make(map[engineKey]*engine),
		jobs:     make(map[string]*job),
		quotas:   newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst),
		flight:   newFlightGroup(),
	}
}

// engineFor returns the shared engine for a policy/associativity pair,
// creating (and warm-starting) it under the registry lock on first use.
// The policy name is canonicalized, so "lru" and "LRU" share one engine.
func (s *Server) engineFor(policyName string, assoc int) (*engine, error) {
	pol, err := policy.New(policyName, assoc)
	if err != nil {
		return nil, err
	}
	key := engineKey{pol.Name(), assoc}
	s.mu.Lock()
	defer s.mu.Unlock()
	if eng, ok := s.engines[key]; ok {
		return eng, nil
	}
	oracle, canonical, scope, err := core.NewSimOracle(policyName, assoc, s.cfg.Sim)
	if err != nil {
		return nil, err
	}
	eng := &engine{
		policy:  canonical,
		assoc:   assoc,
		oracle:  oracle,
		scope:   scope,
		created: time.Now(),
	}
	if s.cfg.SnapshotDir != "" {
		eng.snapPath = core.SnapshotPathInDir(s.cfg.SnapshotDir, canonical, assoc)
		warm, err := core.LoadOracleSnapshot(oracle, eng.snapPath, scope, true)
		if err != nil {
			return nil, err
		}
		eng.warm = warm
		oracle.SetCheckpointer(s.cfg.CheckpointEvery, func() {
			if err := core.SaveOracleSnapshot(oracle, eng.snapPath, scope); err != nil {
				s.cfg.Logf("daemon: checkpoint %s: %v", eng.snapPath, err)
			}
		})
	}
	s.engines[key] = eng
	s.cfg.Logf("daemon: engine %s-%d up (warm=%v)", canonical, assoc, eng.warm)
	return eng, nil
}

// snapshotEngines writes a final snapshot for every persistent engine.
// Used by Close so a drained daemon restarts warm even when no checkpoint
// window elapsed.
func (s *Server) snapshotEngines() {
	s.mu.Lock()
	engines := make([]*engine, 0, len(s.engines))
	for _, eng := range s.engines {
		engines = append(engines, eng)
	}
	s.mu.Unlock()
	for _, eng := range engines {
		if eng.snapPath == "" {
			continue
		}
		if err := s.saveEngineSnapshot(eng); err != nil {
			s.cfg.Logf("daemon: drain snapshot %s: %v", eng.snapPath, err)
		} else {
			s.cfg.Logf("daemon: drain snapshot %s written", eng.snapPath)
		}
	}
}

// Close drains the server: new requests are refused with 503, running jobs
// are canceled at their next query boundary (their progress survives in the
// engine stores), job goroutines are awaited up to ctx's deadline, and
// every persistent engine writes a final snapshot. Close is idempotent; it
// returns ctx.Err() when the drain deadline expired before the jobs
// finished unwinding (snapshots are still written from whatever state the
// stores reached).
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cfg.Logf("daemon: draining")
	s.baseStop()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.snapshotEngines()
	s.cfg.Logf("daemon: drained")
	return err
}

// draining reports whether Close has started.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// engineStatus is one engine's row in the status document.
type engineStatus struct {
	Policy     string      `json:"policy"`
	Assoc      int         `json:"assoc"`
	Warm       bool        `json:"warm"`
	Snapshot   string      `json:"snapshot,omitempty"`
	Stats      polca.Stats `json:"stats"`
	OutNodes   int         `json:"store_out_nodes"`
	ProbeNodes int         `json:"store_probe_nodes"`
}

// statusDoc is the GET /v1/status document.
type statusDoc struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Draining      bool           `json:"draining"`
	Engines       []engineStatus `json:"engines"`
	Jobs          jobCounts      `json:"jobs"`
}

type jobCounts struct {
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
}

// status assembles the live status document.
func (s *Server) status() statusDoc {
	s.mu.Lock()
	engines := make([]*engine, 0, len(s.engines))
	for _, eng := range s.engines {
		engines = append(engines, eng)
	}
	var counts jobCounts
	for _, j := range s.jobs {
		switch j.snapshot().State {
		case jobRunning, jobPending:
			counts.Running++
		case jobDone:
			counts.Done++
		case jobFailed:
			counts.Failed++
		case jobCanceled:
			counts.Canceled++
		}
	}
	closed := s.closed
	s.mu.Unlock()

	doc := statusDoc{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      closed,
		Jobs:          counts,
		Engines:       make([]engineStatus, 0, len(engines)),
	}
	for _, eng := range engines {
		outN, probeN := eng.oracle.StoreFootprint()
		doc.Engines = append(doc.Engines, engineStatus{
			Policy:     eng.policy,
			Assoc:      eng.assoc,
			Warm:       eng.warm,
			Snapshot:   eng.snapPath,
			Stats:      eng.oracle.Stats(),
			OutNodes:   outN,
			ProbeNodes: probeN,
		})
	}
	sort.Slice(doc.Engines, func(i, j int) bool {
		a, b := doc.Engines[i], doc.Engines[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Assoc < b.Assoc
	})
	return doc
}

// Stderr is the default Logf target used by cmd/polcad.
func Stderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
