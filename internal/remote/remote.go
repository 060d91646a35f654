// Package remote distributes the oracle's membership probes over a fleet
// of worker processes, scaling the paper's wall-clock bottleneck — tens of
// thousands of independent cache probes per learned policy — past one box.
//
// A worker (cmd/polcaworker) is a thin stdlib net/http server wrapping the
// same compiled simulator stack the local pipelines run: it answers probe
// batches for "sim:<policy>-<assoc>" scopes and remembers nothing between
// probes. The oracle's probe memo (and its snapshots, which warm-start a
// re-learn with no worker traffic at all) is the one memo on the
// distributed path. The client side (Fleet) implements polca.Prober and
// polca.ProbeBatcher over the fleet: ProbeBatch splits a batch into
// contiguous sub-batches, fans them over the workers through the shared
// health-scored pool (cachequery.ProberPool — quarantine, probation
// re-admission), hedges straggler sub-batches onto a second worker, and
// retries transient failures under the oracle's seeded-backoff policy.
//
// Determinism is preserved end to end: probes are reset-rooted and
// independent, every sub-batch's answers are merged back in submission
// order, and a hedged duplicate probe returns the same outcome as the
// original, so learner trajectories and model JSON are bit-identical to a
// single-box run no matter how the fleet schedules, fails, or recovers.
//
// # Wire format
//
// Endpoints (all JSON):
//
//	GET  /healthz    -> 200 "ok"
//	GET  /v1/status  -> workerStatus (scopes, probe counter)
//	POST /v1/probe   -> probeRequest -> probeResponse
//
// A probe request carries the scope and the queries as block-name arrays.
// Every query executes; outcomes come back as one character per query,
// 'H' or 'M', in request order. A malformed scope or block name is a 400
// (a client bug, never retried); 5xx answers and transport failures are
// transient.
package remote

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
)

// probeRequest is the body of POST /v1/probe.
type probeRequest struct {
	// Scope names the system under probe, e.g. "sim:LRU-4".
	Scope string `json:"scope"`
	// Queries are reset-rooted probe words, one block-name array each.
	Queries [][]string `json:"queries"`
}

// probeResponse is the body answering POST /v1/probe.
type probeResponse struct {
	// Outcomes has one character per query, in request order: 'H' or 'M'.
	Outcomes string `json:"outcomes"`
}

// workerStatus is the body of GET /v1/status.
type workerStatus struct {
	Scopes map[string]scopeStatus `json:"scopes"`
	Probes int64                  `json:"probes"` // queries executed
}

// scopeStatus describes one scope's simulator prober.
type scopeStatus struct {
	Assoc    int  `json:"assoc"`
	Compiled bool `json:"compiled"`
}

// encodeOutcomes renders outcomes as the wire's per-query character string.
func encodeOutcomes(ocs []cache.Outcome) string {
	b := make([]byte, len(ocs))
	for i, oc := range ocs {
		if oc == cache.Hit {
			b[i] = 'H'
		} else {
			b[i] = 'M'
		}
	}
	return string(b)
}

// decodeOutcomes parses the wire's outcome string, expecting exactly n.
func decodeOutcomes(s string, n int) ([]cache.Outcome, error) {
	if len(s) != n {
		return nil, fmt.Errorf("remote: %d outcomes for %d queries", len(s), n)
	}
	out := make([]cache.Outcome, n)
	for i := 0; i < n; i++ {
		switch s[i] {
		case 'H':
			out[i] = cache.Hit
		case 'M':
			out[i] = cache.Miss
		default:
			return nil, fmt.Errorf("remote: malformed outcome %q", s[i])
		}
	}
	return out, nil
}

// ParseSimScope splits a simulator scope string ("sim:<policy>-<assoc>",
// the core.SimSnapshotScope format) into policy name and associativity.
// Policy names may themselves contain dashes (SRRIP-FP), so the split is
// at the last dash.
func ParseSimScope(scope string) (policyName string, assoc int, err error) {
	body, ok := strings.CutPrefix(scope, "sim:")
	if !ok {
		return "", 0, fmt.Errorf("remote: scope %q is not a simulator scope (want sim:<policy>-<assoc>)", scope)
	}
	i := strings.LastIndexByte(body, '-')
	if i <= 0 {
		return "", 0, fmt.Errorf("remote: malformed simulator scope %q", scope)
	}
	assoc, err = strconv.Atoi(body[i+1:])
	if err != nil || assoc < 1 {
		return "", 0, fmt.Errorf("remote: malformed associativity in scope %q", scope)
	}
	return body[:i], assoc, nil
}

// SplitAddrs parses a comma-separated worker address list (the -workers
// flag of the CLIs): entries are trimmed of spaces and blank entries are
// dropped, so "a:1, b:2," lists two workers.
func SplitAddrs(list string) []string {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// transientErr marks fleet-side failures the retry policy may absorb:
// connection failures, timeouts, 5xx answers, truncated bodies. The wrapped
// cause is preserved for diagnostics.
type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// transient wraps err as transient (nil stays nil).
func transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}
