package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
)

// The serve workload drives an in-process polcad (daemon.New) on a real
// loopback listener: an open-loop, seeded /v1/query stream from at most
// serveConns connections at fixed offered rates, plus one algo=tree
// learning job submitted on the same engine at jobAt into the schedule.
// After the fixed rates and the job, the offered rate keeps growing until
// the daemon no longer keeps up, which finds the highest sustained rate.
const (
	servePolicy = "New1"
	serveAssoc  = 4
	serveConns  = 2
	// serveLimit is the p99 latency a rate step must meet to count as
	// sustained.
	serveLimit = 10 * time.Millisecond
	serveStep  = time.Second
	jobAt      = 500 * time.Millisecond
	// serveSetups is how many extra daemons a run boots for set-up samples.
	serveSetups = 20

	// The saturation search: steps of searchStep from the highest fixed
	// rate, each searchGrowth times the last, up to searchMax req/s. It
	// runs after the job, on the daemon alone.
	searchStep   = 500 * time.Millisecond
	searchGrowth = 1.25
	searchMax    = 32000

	// The traffic is polcaload's: words of 1 to serveMaxLen symbols (its
	// -max-len default, and BenchmarkDaemonQueries' word length), each
	// symbol uniform over the policy's inputs. One client sends one word
	// per request (polcaload's -words default), the other serveBatch
	// (the batched -words 4 of its usage line).
	serveMaxLen = 6
	serveBatch  = 4
)

// serveRates are the fixed offered rates in requests per second, one step
// each. Closed-loop polcaload at 2 clients tops out near 11k qps, so these
// sit below the knee even with the tree job competing for the cores; the
// search ladder goes on past the knee.
var serveRates = []int{250, 500, 1000, 2000}

type serveShape struct {
	policy string
	assoc  int
	steps  []rateStep // the fixed rates, then the search ladder
	fixed  int        // how many of steps are fixed
}

// rateStep is one offered rate and its seeded requests.
type rateStep struct {
	rate int
	dur  time.Duration
	reqs []serveReq
}

// serveReq is one scheduled /v1/query request.
type serveReq struct {
	due   time.Duration // offset from the step's start
	words [][]int
}

func newServeShape(seed int64, tiny bool) serveShape {
	sh := serveShape{policy: servePolicy, assoc: serveAssoc}
	rates, search := serveRates, searchMax
	step := serveStep
	if tiny {
		sh.policy, rates, search, step = "LRU", []int{100}, 125, 300*time.Millisecond
	}
	tr := newTraffic(seed, sh.assoc)
	for _, rate := range rates {
		sh.steps = append(sh.steps, tr.step(rate, step))
	}
	sh.fixed = len(sh.steps)
	for rate := float64(rates[len(rates)-1]); rate <= float64(search); rate *= searchGrowth {
		sh.steps = append(sh.steps, tr.step(int(rate), searchStep))
	}
	return sh
}

// traffic draws requests the way polcaload does, for its two clients:
// client i from seed+i, sending 1 and serveBatch words per request;
// requests alternate between them. Words repeat only by chance, as in
// polcaload: short words over a few inputs collide often.
type traffic struct {
	rngs  [2]*rand.Rand
	numIn int
	n     int
}

func newTraffic(seed int64, assoc int) *traffic {
	return &traffic{
		rngs:  [2]*rand.Rand{rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed + 1))},
		numIn: policy.NumInputs(assoc),
	}
}

func (t *traffic) request() [][]int {
	client := t.n % 2
	t.n++
	rng := t.rngs[client]
	words := make([][]int, 1+client*(serveBatch-1))
	for i := range words {
		w := make([]int, 1+rng.Intn(serveMaxLen))
		for j := range w {
			w[j] = rng.Intn(t.numIn)
		}
		words[i] = w
	}
	return words
}

// step schedules rate requests per second, evenly spaced, for d.
func (t *traffic) step(rate int, d time.Duration) rateStep {
	n := int(float64(rate) * d.Seconds())
	st := rateStep{rate: rate, dur: d, reqs: make([]serveReq, n)}
	for i := range st.reqs {
		st.reqs[i] = serveReq{due: time.Duration(i) * time.Second / time.Duration(rate), words: t.request()}
	}
	return st
}

// mixShares measures the fixed steps' traffic: the share of requests that
// carry more than one word and the share of words that repeat an earlier
// word of the schedule.
func mixShares(sh serveShape) (batched, repeated float64) {
	seen := map[string]bool{}
	var reqs, multi, words, repeats int
	for _, st := range sh.steps[:sh.fixed] {
		for _, rq := range st.reqs {
			reqs++
			if len(rq.words) > 1 {
				multi++
			}
			for _, w := range rq.words {
				words++
				k := fmt.Sprint(w)
				if seen[k] {
					repeats++
				}
				seen[k] = true
			}
		}
	}
	return ratio(float64(multi), float64(reqs)), ratio(float64(repeats), float64(words))
}

// cycleResult is what one serve cycle measured.
type cycleResult struct {
	setup, job time.Duration
	lat        [][]float64 // per step run, ms from due time to response
	rtt        [][]float64 // per step run, ms from send to response
	late       []float64   // ms the generator dispatched after the due time
	rt         []float64   // ms client round trip, traced cycles
	handler    []float64   // ms inside Server.Handler(), traced cycles
	coalesced  int
	answered   int
	jobStatus  jobDoc
	model      []byte
	polca      polca.Stats // engine counter delta over the cycle
	outNodes   int
	probeNodes int
}

// jobDoc is the part of GET /v1/jobs/{id} the workload reads.
type jobDoc struct {
	ID    string       `json:"id"`
	State string       `json:"state"`
	Error string       `json:"error"`
	Learn *learn.Stats `json:"learn"`
}

// statusDoc is the part of GET /v1/status the workload reads.
type statusDoc struct {
	Engines []engineDoc `json:"engines"`
}

type engineDoc struct {
	Policy     string      `json:"policy"`
	Assoc      int         `json:"assoc"`
	Stats      polca.Stats `json:"stats"`
	OutNodes   int         `json:"store_out_nodes"`
	ProbeNodes int         `json:"store_probe_nodes"`
}

// serve is the serve workload. setup is daemon boot plus the first engine
// (up to the first answered query); work is the cycle's median query round
// trip at the fixed rates, with the tree job running. The round trip is
// timed from the send, not the due time, so the generator's timer
// lateness, which dominates the due-time median at low rates, stays out of
// it; the due-time latencies are the traced run's query_p50_ms and
// query_p99_ms.
func serve(ctx context.Context, cfg config) (*report, error) {
	sh := newServeShape(cfg.seed, cfg.tiny)
	truth, err := mealy.FromPolicy(policy.MustNew(sh.policy, sh.assoc), 0)
	if err != nil {
		return nil, err
	}
	r := newReport()
	var rates []int
	for _, st := range sh.steps[:sh.fixed] {
		rates = append(rates, st.rate)
	}
	batched, repeated := mixShares(sh)
	r.note("serve: %s-%d at %v req/s, %v per step, %d connections; %.0f%% of requests batched, %.0f%% of words repeat an earlier one",
		sh.policy, sh.assoc, rates, sh.steps[0].dur, serveConns, 100*batched, 100*repeated)
	// Boot is a few milliseconds, so besides each cycle's own boot the run
	// boots serveSetups daemons for set-up samples. Each boots from a
	// settled heap, as a cycle's boot does.
	for i := 0; i < serveSetups; i++ {
		settle()
		d, err := bootDaemon(sh, nil)
		if err != nil {
			return nil, err
		}
		d.close()
		r.setup = append(r.setup, d.setup)
	}
	var cycles []*cycleResult // untraced
	sums := newLayerSums()
	var traced []*cycleResult
	err = passes(ctx, cfg.budget, r, func(int) error {
		c, err := serveCycle(ctx, sh, truth, false, r)
		if err != nil {
			return err
		}
		cycles = append(cycles, c)
		r.setup = append(r.setup, c.setup)
		r.work = append(r.work, time.Duration(roundTripP50(sh, c)*float64(time.Second)))
		if !cfg.trace {
			return nil
		}
		var tc *cycleResult
		_, err = sums.span(func() (err error) {
			tc, err = serveCycle(ctx, sh, truth, true, r)
			return err
		})
		if err != nil {
			return err
		}
		traced = append(traced, tc)
		r.check(sameJob(c, tc), "serve: traced tree job differs from untraced (%+v vs %+v)", tc.jobStatus.Learn, c.jobStatus.Learn)
		sums.passes++
		sums.untraced += roundTripP50(sh, c)
		sums.add("trace.work_s", roundTripP50(sh, tc))
		if tc.jobStatus.Learn != nil {
			sums.addLearnStats(*tc.jobStatus.Learn)
		}
		sums.addPolca(tc.polca)
		sums.add("qstore.out_nodes", float64(tc.outNodes))
		sums.add("qstore.probe_nodes", float64(tc.probeNodes))
		return nil
	})
	if err != nil {
		return nil, err
	}
	q := summarizeQueries(sh, cycles)
	var jobs []float64
	for _, c := range cycles {
		jobs = append(jobs, c.job.Seconds())
	}
	r.note("serve: query p50 %.3f ms, p99 %.3f ms over the fixed rates; max sustained %g req/s per cycle %v (limit p99 <= %v); generator late p99 %.3f ms; tree job %v s",
		q.p50, q.p99, q.maxQPS, q.cycleQPS, serveLimit, q.lateP99, jobs)
	for k, st := range sh.steps {
		if q.stepN[k] > 0 {
			r.note("serve: step %d req/s: p50 %.3f ms, p99 %.3f ms, %d samples", st.rate, q.stepP50[k], q.stepP99[k], q.stepN[k])
		}
	}
	if cfg.trace {
		var handler, rt, transport []float64
		coalesced, answered := 0, 0
		for _, c := range traced {
			handler = append(handler, c.handler...)
			rt = append(rt, c.rt...)
			for i := range c.rt {
				transport = append(transport, c.rt[i]-c.handler[i])
			}
			coalesced += c.coalesced
			answered += c.answered
		}
		sums.fixed["daemon.handler_p50_ms"] = quantile(handler, 0.5)
		sums.fixed["daemon.handler_p99_ms"] = quantile(handler, 0.99)
		sums.fixed["transport.p50_ms"] = quantile(transport, 0.5)
		sums.fixed["daemon.coalesced_ratio"] = ratio(float64(coalesced), float64(answered))
		sums.fixed["query_p50_ms"] = q.p50
		sums.fixed["query_p99_ms"] = q.p99
		sums.fixed["query_max_qps"] = q.maxQPS
		sums.fixed["job_s"] = quantile(jobs, 0.5)
		sums.fixed["loadgen.late_p99_ms"] = q.lateP99
		sums.finish(r)
	}
	return r, nil
}

// roundTripP50 is the median round trip of a cycle's requests at the
// fixed rates, in seconds.
func roundTripP50(sh serveShape, c *cycleResult) float64 {
	var all []float64
	for _, rtt := range c.rtt[:sh.fixed] {
		all = append(all, rtt...)
	}
	return quantile(all, 0.5) / 1000
}

func sameJob(a, b *cycleResult) bool {
	if a.jobStatus.Learn == nil || b.jobStatus.Learn == nil {
		return false
	}
	sa, sb := *a.jobStatus.Learn, *b.jobStatus.Learn
	sa.Duration, sb.Duration = 0, 0
	return sa == sb && bytes.Equal(a.model, b.model)
}

type querySummary struct {
	p50, p99, maxQPS, lateP99 float64
	cycleQPS                  []float64
	stepP50, stepP99          []float64
	stepN                     []int
}

// summarizeQueries pools the untraced cycles: latency over the fixed
// rates, per-step percentiles, and the median over cycles of the highest
// sustained rate.
func summarizeQueries(sh serveShape, cycles []*cycleResult) querySummary {
	var q querySummary
	var all, late []float64
	for k := range sh.steps {
		var step []float64
		for _, c := range cycles {
			if k < len(c.lat) {
				step = append(step, c.lat[k]...)
			}
		}
		if k < sh.fixed {
			all = append(all, step...)
		}
		q.stepN = append(q.stepN, len(step))
		q.stepP50 = append(q.stepP50, quantile(step, 0.5))
		q.stepP99 = append(q.stepP99, quantile(step, 0.99))
	}
	for _, c := range cycles {
		late = append(late, c.late...)
		q.cycleQPS = append(q.cycleQPS, float64(maxSustained(sh, c)))
	}
	q.p50 = quantile(all, 0.5)
	q.p99 = quantile(all, 0.99)
	q.maxQPS = quantile(q.cycleQPS, 0.5)
	q.lateP99 = quantile(late, 0.99)
	return q
}

// sustained reports whether a step's latencies meet serveLimit at the p99
// and show no growing backlog: the median of its last tenth of requests
// also meets the limit.
func sustained(lat []float64) bool {
	if len(lat) == 0 {
		return false
	}
	limit := ms(serveLimit)
	tail := slices.Clone(lat[len(lat)-len(lat)/10-1:])
	return quantile(slices.Clone(lat), 0.99) <= limit && quantile(tail, 0.5) <= limit
}

// maxSustained is the highest rate of the cycle's search ladder up to
// which every search step was sustained; 0 when the first was not.
func maxSustained(sh serveShape, c *cycleResult) int {
	best := 0
	for k := sh.fixed; k < len(c.lat) && sustained(c.lat[k]); k++ {
		best = sh.steps[k].rate
	}
	return best
}

// handlerSpans times Server.Handler() per request, keyed by the request's
// X-Bench-Id header.
type handlerSpans struct {
	mu   sync.Mutex
	byID map[string]time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		if id := r.Header.Get("X-Bench-Id"); id != "" {
			h.mu.Lock()
			h.byID[id] = d
			h.mu.Unlock()
		}
	})
}

// booted is a running daemon under test.
type booted struct {
	base   string
	client *http.Client // the query stream's connections
	setup  time.Duration
	close  func()
}

// bootDaemon builds a daemon and times it up to its first answered query,
// which builds the workload's engine; the query goes straight to
// Server.Handler(), so loopback scheduling does not blur a boot of a
// millisecond or two. The daemon then serves on a loopback listener. wrap,
// when set, wraps Server.Handler().
func bootDaemon(sh serveShape, wrap func(http.Handler) http.Handler) (*booted, error) {
	start := time.Now()
	srv := daemon.New(daemon.Config{})
	handler := srv.Handler()
	body, err := json.Marshal(map[string]any{"policy": sh.policy, "assoc": sh.assoc, "word": []int{0}})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	setup := time.Since(start)
	if rec.Code != http.StatusOK {
		srv.Close(context.Background())
		return nil, fmt.Errorf("first query: status %d: %s", rec.Code, rec.Body)
	}
	if wrap != nil {
		handler = wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	d := &booted{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
			Timeout:   30 * time.Second,
		},
		setup: setup,
	}
	d.close = func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Drain the daemon first, so open job event streams end before
		// the HTTP server waits for them.
		srv.Close(shutCtx)
		hs.Shutdown(shutCtx)
		<-served
		d.client.CloseIdleConnections()
	}
	return d, nil
}

// serveCycle boots a daemon and runs the fixed rate steps against it with
// the tree job submitted at jobAt. An untraced cycle then waits for the
// job and runs the search ladder until a step is not sustained. Every
// answer is verified; the daemon is shut down at the end.
func serveCycle(ctx context.Context, sh serveShape, truth *mealy.Machine, trace bool, r *report) (*cycleResult, error) {
	c := &cycleResult{}
	spans := &handlerSpans{byID: map[string]time.Duration{}}

	var wrap func(http.Handler) http.Handler
	if trace {
		wrap = spans.wrap
	}
	d, err := bootDaemon(sh, wrap)
	if err != nil {
		return nil, err
	}
	defer d.close()
	c.setup = d.setup

	before, err := engineStatus(ctx, d.client, d.base, sh)
	if err != nil {
		return nil, err
	}

	// The job uses its own client, so the query stream keeps its two
	// connections to itself.
	jobClient := &http.Client{Transport: &http.Transport{}}
	defer jobClient.CloseIdleConnections()
	jobDone := make(chan error, 1)
	go func() {
		timer := time.NewTimer(jobAt)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			jobDone <- ctx.Err()
			return
		}
		jobDone <- runJob(ctx, jobClient, d.base, sh, c)
	}()
	waitJob := sync.OnceValue(func() error { return <-jobDone })

	rts := map[string]float64{}
	sent := 0
	for k, st := range sh.steps {
		if k >= sh.fixed {
			// The search measures the daemon alone, after the job.
			if err := waitJob(); err != nil {
				return nil, err
			}
			if trace || (k > sh.fixed && maxSustained(sh, c) != sh.steps[k-1].rate) {
				break
			}
		}
		lat, rtt := runStep(ctx, d, sh, st, truth, trace, sent, r, c, rts)
		c.lat, c.rtt = append(c.lat, lat), append(c.rtt, rtt)
		sent += len(st.reqs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := waitJob(); err != nil {
		return nil, err
	}
	r.check(c.jobStatus.State == "done", "serve: tree job ended %s: %s", c.jobStatus.State, c.jobStatus.Error)
	if c.jobStatus.State == "done" {
		m, err := mealy.Load(bytes.NewReader(c.model))
		eq := err == nil
		if eq {
			eq, _ = m.Equivalent(truth)
		}
		r.check(eq, "serve: tree job model differs from the policy (%v)", err)
	}
	after, err := engineStatus(ctx, d.client, d.base, sh)
	if err != nil {
		return nil, err
	}
	c.polca = statsDelta(after.Stats, before.Stats)
	c.outNodes, c.probeNodes = after.OutNodes, after.ProbeNodes
	if trace {
		spans.mu.Lock()
		for id, rt := range rts {
			if h, ok := spans.byID[id]; ok {
				c.rt = append(c.rt, rt)
				c.handler = append(c.handler, ms(h))
			}
		}
		spans.mu.Unlock()
	}
	return c, nil
}

// runStep sends one step's requests open loop over serveConns
// connections, each at its due time after the step starts, verifies every
// answer, and returns each request's latency from its due time and its
// round trip from its send, in ms. A failed request counts as an hour, so
// it misses any limit. Request ids start at idBase.
func runStep(ctx context.Context, d *booted, sh serveShape, st rateStep, truth *mealy.Machine, trace bool, idBase int, r *report, c *cycleResult, rts map[string]float64) (lats, rtts []float64) {
	type sent struct {
		req  serveReq
		late time.Duration
		id   string
	}
	queue := make(chan sent, len(st.reqs)) // sized to the number of sends
	start := time.Now()
	go func() {
		defer close(queue)
		for i, rq := range st.reqs {
			if w := time.Until(start.Add(rq.due)); w > 0 {
				select {
				case <-time.After(w):
				case <-ctx.Done():
					return
				}
			}
			queue <- sent{rq, time.Since(start.Add(rq.due)), strconv.Itoa(idBase + i)}
		}
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range queue {
				id := ""
				if trace {
					id = s.id
				}
				t := time.Now()
				resp, err := postQuery(ctx, d.client, d.base, sh, s.req.words, id)
				done := time.Now()
				ok := err == nil && len(resp.Outputs) == len(s.req.words)
				for i := 0; ok && i < len(s.req.words); i++ {
					ok = slices.Equal(resp.Outputs[i], truth.Run(s.req.words[i]))
				}
				lat, rtt := done.Sub(start.Add(s.req.due)), done.Sub(t)
				if !ok {
					lat, rtt = time.Hour, time.Hour
				}
				mu.Lock()
				r.check(ok, "serve: query %v: %v", s.req.words, err)
				lats = append(lats, ms(lat))
				rtts = append(rtts, ms(rtt))
				c.late = append(c.late, ms(s.late))
				if err == nil {
					c.answered++
					if resp.Coalesced {
						c.coalesced++
					}
					if trace {
						rts[id] = ms(rtt)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lats, rtts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type queryResp struct {
	Outputs   [][]int `json:"outputs"`
	Coalesced bool    `json:"coalesced"`
}

func postQuery(ctx context.Context, client *http.Client, base string, sh serveShape, words [][]int, id string) (*queryResp, error) {
	req, err := jsonRequest(ctx, http.MethodPost, base+"/v1/query", map[string]any{"policy": sh.policy, "assoc": sh.assoc, "words": words})
	if err != nil {
		return nil, err
	}
	if id != "" {
		req.Header.Set("X-Bench-Id", id)
	}
	var out queryResp
	if err := doJSON(client, req, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// jsonRequest builds a request whose body, when v is not nil, is v as JSON.
func jsonRequest(ctx context.Context, method, url string, v any) (*http.Request, error) {
	var body io.Reader
	if v != nil {
		data, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err == nil && v != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// do sends req and returns the response body; a status other than want is
// an error.
func do(client *http.Client, req *http.Request, want int) ([]byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// doJSON is do decoding the body into v.
func doJSON(client *http.Client, req *http.Request, want int, v any) error {
	data, err := do(client, req, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// engineStatus reads the workload engine's counters from /v1/status.
func engineStatus(ctx context.Context, client *http.Client, base string, sh serveShape) (engineDoc, error) {
	req, err := jsonRequest(ctx, http.MethodGet, base+"/v1/status", nil)
	if err != nil {
		return engineDoc{}, err
	}
	var st statusDoc
	if err := doJSON(client, req, http.StatusOK, &st); err != nil {
		return engineDoc{}, err
	}
	for _, e := range st.Engines {
		if e.Assoc == sh.assoc && strings.EqualFold(e.Policy, sh.policy) {
			return e, nil
		}
	}
	return engineDoc{}, fmt.Errorf("/v1/status lists no %s-%d engine", sh.policy, sh.assoc)
}

func statsDelta(a, b polca.Stats) polca.Stats {
	return polca.Stats{
		OutputQueries: a.OutputQueries - b.OutputQueries,
		Symbols:       a.Symbols - b.Symbols,
		Probes:        a.Probes - b.Probes,
		MemoHits:      a.MemoHits - b.MemoHits,
		Accesses:      a.Accesses - b.Accesses,
		Retries:       a.Retries - b.Retries,
		Disagreements: a.Disagreements - b.Disagreements,
		Reprobes:      a.Reprobes - b.Reprobes,
	}
}

// runJob submits the tree job, follows its event stream to the terminal
// event, and fetches its status and model. c.job is submit to terminal
// event.
func runJob(ctx context.Context, client *http.Client, base string, sh serveShape, c *cycleResult) error {
	submit := time.Now()
	req, err := jsonRequest(ctx, http.MethodPost, base+"/v1/jobs", map[string]any{"policy": sh.policy, "assoc": sh.assoc, "algo": "tree"})
	if err != nil {
		return err
	}
	var st jobDoc
	if err := doJSON(client, req, http.StatusAccepted, &st); err != nil {
		return fmt.Errorf("submit job: %w", err)
	}
	if err := awaitJob(ctx, client, base, st.ID); err != nil {
		return err
	}
	c.job = time.Since(submit)
	if req, err = jsonRequest(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID, nil); err != nil {
		return err
	}
	if err := doJSON(client, req, http.StatusOK, &c.jobStatus); err != nil {
		return err
	}
	if c.jobStatus.State != "done" {
		return nil
	}
	if req, err = jsonRequest(ctx, http.MethodGet, base+"/v1/jobs/"+st.ID+"/model", nil); err != nil {
		return err
	}
	c.model, err = do(client, req, http.StatusOK)
	return err
}

// awaitJob reads the job's server-sent events until the terminal one.
func awaitJob(ctx context.Context, client *http.Client, base, id string) error {
	req, err := jsonRequest(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		switch strings.TrimPrefix(sc.Text(), "event: ") {
		case "done", "failed", "canceled":
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job events: stream ended before a terminal event")
}
