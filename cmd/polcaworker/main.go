// Command polcaworker serves the polca oracle's probe batches over HTTP:
// one member of the distributed oracle fan-out fleet. A worker wraps the
// same compiled simulator stack the local pipelines run — it answers
// reset-rooted probe batches for "sim:<policy>-<assoc>" scopes, executing
// every query and remembering nothing: the learner's oracle memo (and its
// -snapshot/-warm files) is the one memo on the distributed path. Because
// probes are deterministic, any mix of workers produces the same answers,
// and a distributed learn (cmd/polca -workers) stays bit-identical to a
// single-box run.
//
//	polcaworker                             # serve on :8435
//	polcaworker -probe-cost 200us           # emulate hardware probe latency
//
//	curl -s localhost:8435/v1/status | jq .
//	curl -s localhost:8435/v1/probe -d '{"scope":"sim:LRU-4","queries":[["E","A"]]}'
//
// -probe-cost charges a fixed latency per probe, emulating the measurement
// cost of a hardware-backed worker; it is what makes fan-out benchmarks
// honest on a single box, where pure simulator probes are too cheap to
// need distributing.
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

	"repro/internal/remote"
)

func main() {
	addr := flag.String("addr", ":8435", "listen address (host:port)")
	probeCost := flag.Duration("probe-cost", 0, "fixed latency charged per probe (emulates hardware measurement cost; every probe executes and pays it)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM/SIGINT drain waits for in-flight probe requests")
	flag.Parse()

	w := remote.NewWorker(remote.WorkerConfig{
		ProbeCost: *probeCost,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "polcaworker: "+format+"\n", args...)
		},
	})
	httpSrv := &http.Server{Addr: *addr, Handler: w.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "polcaworker: serving on %s (probe-cost=%v)\n", *addr, *probeCost)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "polcaworker: signal received, draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "polcaworker: shutdown: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "polcaworker: drained, bye (%d probes)\n", w.Totals().Probes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polcaworker:", err)
	os.Exit(1)
}
