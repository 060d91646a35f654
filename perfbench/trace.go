package main

import (
	"bytes"
	"context"
	"time"

	"repro/internal/learn"
	"repro/internal/polca"
)

// oracleTeacher is what the learner sees of a Polca oracle: exactly the
// interfaces internal/learn asserts on its teacher.
type oracleTeacher interface {
	learn.BatchTeacher
	learn.BatchHinter
}

// tracedTeacher is the span around the learner's calls into the oracle. It
// forwards exactly Teacher, BatchTeacher and BatchHinter, so the learner
// makes the same batching decisions it makes on the bare oracle, and it
// times every call: the learner is single-threaded, so the summed call time
// is the time learn.Learn spent blocked on the oracle. The prober under the
// oracle is deliberately not wrapped: polca type-asserts its concrete
// simulator prober, and a wrapper would silently switch engines. Simulator
// time therefore counts as oracle wait.
type tracedTeacher struct {
	inner oracleTeacher
	wait  time.Duration
	calls int
	words int
}

func (t *tracedTeacher) NumInputs() int { return t.inner.NumInputs() }

func (t *tracedTeacher) BatchHint() int { return t.inner.BatchHint() }

func (t *tracedTeacher) OutputQuery(ctx context.Context, word []int) ([]int, error) {
	start := time.Now()
	out, err := t.inner.OutputQuery(ctx, word)
	t.wait += time.Since(start)
	t.calls++
	t.words++
	return out, err
}

func (t *tracedTeacher) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	start := time.Now()
	out, err := t.inner.OutputQueryBatch(ctx, words)
	t.wait += time.Since(start)
	t.calls++
	t.words += len(words)
	return out, err
}

// sameLearn reports whether two learns produced byte-identical machines and
// identical learner counters (wall time aside).
func sameLearn(a, b *learn.Result) bool {
	var ja, jb bytes.Buffer
	if a.Machine.Save(&ja) != nil || b.Machine.Save(&jb) != nil {
		return false
	}
	sa, sb := a.Stats, b.Stats
	sa.Duration, sb.Duration = 0, 0
	return sa == sb && bytes.Equal(ja.Bytes(), jb.Bytes())
}

// layerSums accumulates per-layer values over the traced passes of a run;
// finish turns them into per-pass means and derives the ratios.
type layerSums struct {
	sum    map[string]float64
	fixed  map[string]float64 // whole-run values, not averaged per pass
	passes int
	// untraced is the summed untraced work time of the same passes, the
	// base of the tracing overhead.
	untraced float64
}

func newLayerSums() *layerSums {
	return &layerSums{sum: map[string]float64{}, fixed: map[string]float64{}}
}

// span times one traced section and records the Go runtime's allocation
// and GC-cycle deltas across it.
func (s *layerSums) span(fn func() error) (time.Duration, error) {
	a0, g0 := goCounters()
	d, err := timed(fn)
	a1, g1 := goCounters()
	s.add("go.alloc_mb", (a1-a0)/(1<<20))
	s.add("go.gc_cycles", g1-g0)
	return d, err
}

func (s *layerSums) add(name string, v float64) { s.sum[name] += v }

func (s *layerSums) addDur(name string, d time.Duration) { s.add(name, d.Seconds()) }

// addLearn records one traced learn: its wall time, the learner's
// counters and the teacher span.
func (s *layerSums) addLearn(wall time.Duration, st learn.Stats, t *tracedTeacher) {
	s.addDur("trace.work_s", wall)
	s.addDur("learn.self_s", wall-t.wait)
	s.addDur("polca.wait_s", t.wait)
	s.add("learn.teacher_calls", float64(t.calls))
	s.add("learn.teacher_words", float64(t.words))
	s.addLearnStats(st)
}

func (s *layerSums) addLearnStats(st learn.Stats) {
	s.add("learn.output_queries", float64(st.OutputQueries))
	s.add("learn.query_symbols", float64(st.QuerySymbols))
	s.add("learn.rounds", float64(st.Rounds))
	s.add("learn.test_words", float64(st.TestWords))
	s.add("learn.counterexamples", float64(st.Counterexample))
}

func (s *layerSums) addPolca(st polca.Stats) {
	s.add("polca.probes", float64(st.Probes))
	s.add("polca.accesses", float64(st.Accesses))
	s.add("polca.symbols", float64(st.Symbols))
	s.add("polca.memo_hits", float64(st.MemoHits))
	s.add("polca.retries", float64(st.Retries))
	s.add("polca.reprobes", float64(st.Reprobes))
}

// finish writes the per-pass means into r.layer. Every catalogue name gets
// a value; a layer that did no work on this workload reports 0.
func (s *layerSums) finish(r *report) {
	n := float64(s.passes)
	if n == 0 {
		n = 1
	}
	for _, d := range perLayer {
		r.layer[d.name] = s.sum[d.name] / n
	}
	sum := s.sum
	r.layer["learn.batch_words_mean"] = ratio(sum["learn.teacher_words"], sum["learn.teacher_calls"])
	r.layer["polca.memo_hit_ratio"] = ratio(sum["polca.memo_hits"], sum["polca.symbols"])
	r.layer["cachequery.hit_ratio"] = ratio(sum["cachequery.cache_hits"], sum["cachequery.cache_hits"]+sum["cachequery.executed"])
	r.layer["cachequery.utilization"] = ratio(sum["cachequery.backend_busy_s"], sum["cachequery.learn_s"]*sum["cachequery.replicas"]/n)
	r.layer["synth.candidates_per_s"] = ratio(sum["synth.candidates"], sum["trace.work_s"])
	r.layer["trace.overhead_ratio"] = ratio(sum["trace.work_s"], s.untraced)
	for name, v := range s.fixed {
		r.layer[name] = v
	}
}
