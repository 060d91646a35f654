// Command polcad is the learning-as-a-service daemon: the whole CacheQuery
// reproduction pipeline — membership/output queries, learning jobs with SSE
// progress, and the model-artifact zoo — behind one multi-tenant HTTP API.
//
// All clients of a (policy, associativity) pair share one engine (a single
// Polca oracle over one compiled policy table and one query store),
// duplicate in-flight queries are single-flighted across tenants, and
// per-tenant token buckets bound what any one client can spend. With
// -snapshot-dir, engines load warm snapshots on boot, checkpoint every
// -checkpoint-every output queries during jobs, and write final snapshots
// on SIGTERM/SIGINT drain — so a restarted daemon answers from disk and a
// killed-mid-job learn resumes from its checkpoint with a bit-identical
// model. See docs/API.md for the endpoint reference.
//
//	polcad                                   # serve on :8344, no persistence
//	polcad -snapshot-dir /var/lib/polcad     # warm-startable serving
//	polcad -quota-rate 100 -quota-burst 500  # per-tenant quotas
//
//	curl -s localhost:8344/v1/query -d '{"policy":"LRU","assoc":4,"word":[4,4,0,4]}'
//	curl -s localhost:8344/v1/jobs -d '{"policy":"LRU","assoc":4}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/faulty"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address (host:port)")
	modelsDir := flag.String("models", "models", "model-artifact directory served by /v1/models; completed jobs publish <policy>-<assoc>.learned.json here (empty = no filesystem models)")
	snapshotDir := flag.String("snapshot-dir", "", "per-engine qstore snapshot directory: load warm on boot, checkpoint during jobs, save on drain (empty = no persistence)")
	ckEvery := flag.Int("checkpoint-every", 256, "auto-snapshot each engine's query store every N output queries during jobs (requires -snapshot-dir)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant token-bucket refill rate in tokens/second; queries cost 1 token per word, job submissions cost 10 (0 = quotas off)")
	quotaBurst := flag.Float64("quota-burst", 64, "per-tenant token-bucket capacity (with -quota-rate)")
	faults := flag.String("faults", "", `deterministic fault-injection plan for every engine's probes, e.g. "seed=42,err=0.05,flip=0.001" (soak testing)`)
	eventEvery := flag.Duration("event-interval", 250*time.Millisecond, "SSE job-progress event cadence")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM/SIGINT drain waits for in-flight jobs to unwind before snapshotting anyway")
	flag.Parse()

	var sim core.SimOptions
	if *faults != "" {
		plan, err := faulty.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		sim.Faults = &plan
	}
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *modelsDir != "" {
		if err := os.MkdirAll(*modelsDir, 0o755); err != nil {
			fatal(err)
		}
	}

	srv := daemon.New(daemon.Config{
		ModelsDir:       *modelsDir,
		SnapshotDir:     *snapshotDir,
		CheckpointEvery: *ckEvery,
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		Sim:             sim,
		EventInterval:   *eventEvery,
		Logf:            daemon.Stderr,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "polcad: serving on %s (models=%s snapshots=%s)\n", *addr, *modelsDir, orNone(*snapshotDir))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Drain: cancel jobs and SSE streams at their next boundary, write
	// final engine snapshots, then let the HTTP server finish in-flight
	// responses. The order matters — srv.Close unblocks the SSE streams
	// that would otherwise hold Shutdown open.
	fmt.Fprintln(os.Stderr, "polcad: signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Close(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "polcad: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "polcad: shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "polcad: drained, bye")
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polcad:", err)
	os.Exit(1)
}
