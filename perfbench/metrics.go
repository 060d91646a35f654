package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract with BENCHMARK.json: every untraced run
// prints every end-to-end metric, every traced run every per-layer metric,
// on every workload (a layer that does no work on a workload reports 0).
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible numbers, measured with tracing off.
// work_s is the steady-state wall time of one pass over the workload's task
// set: the learn set (sim-learn, hw-learn) or the synthesis set (explain);
// on serve it is the time a user waits for a query, the median latency over
// the fixed rates with the tree job running.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's numbers. Times and counters are means per
// traced pass, so on the learn workloads learn.self_s + polca.wait_s adds up
// to trace.work_s.
var perLayer = []metricDef{
	{"learn.self_s", "s"},
	{"learn.output_queries", "count"},
	{"learn.query_symbols", "count"},
	{"learn.rounds", "count"},
	{"learn.test_words", "count"},
	{"learn.counterexamples", "count"},
	{"learn.teacher_calls", "count"},
	{"learn.batch_words_mean", "words"},
	{"polca.wait_s", "s"},
	{"polca.probes", "count"},
	{"polca.accesses", "count"},
	{"polca.symbols", "count"},
	{"polca.memo_hits", "count"},
	{"polca.memo_hit_ratio", "ratio"},
	{"polca.retries", "count"},
	{"polca.reprobes", "count"},
	{"policy.compile_s", "s"},
	{"cachequery.provision_s", "s"},
	{"cachequery.reset_discovery_s", "s"},
	{"cachequery.backend_busy_s", "s"},
	{"cachequery.replicas", "count"},
	{"cachequery.utilization", "ratio"},
	{"cachequery.executed", "count"},
	{"cachequery.cache_hits", "count"},
	{"cachequery.hit_ratio", "ratio"},
	{"cachequery.inconclusive", "count"},
	{"daemon.handler_p50_ms", "ms"},
	{"daemon.handler_p99_ms", "ms"},
	{"daemon.coalesced_ratio", "ratio"},
	{"transport.p50_ms", "ms"},
	{"qstore.out_nodes", "count"},
	{"qstore.probe_nodes", "count"},
	{"synth.candidates", "count"},
	{"synth.witnesses", "count"},
	{"synth.pruned", "count"},
	{"synth.candidates_per_s", "1/s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_max_qps", "1/s"},
	{"job_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.work_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// report is what a workload hands back to main: the counts of verified
// operations and the raw metric values, keyed by catalogue name.
type report struct {
	attempted, failed int
	setup, work       []time.Duration // one sample per untraced pass
	rss               []float64       // resident-set peak per pass, MB
	passPeak          float64         // peak before the pass's last resettle, MB
	layer             map[string]float64
	notes             []string // human-readable lines printed before the result
}

func newReport() *report { return &report{layer: map[string]float64{}} }

// check records one verified operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note("FAIL "+format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// median of a sample set in seconds; 0 for an empty set.
func medianSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
