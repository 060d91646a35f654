// Command polcaload is the load-test harness for polcad: it drives many
// simulated concurrent clients against a running daemon's /v1/query
// endpoint and reports throughput and latency, exercising exactly the
// multi-tenant sharing the daemon exists for (shared engines, single-flight
// coalescing, quotas).
//
// Each client runs on its own goroutine with its own seeded random word
// stream (client i uses -seed + i), so runs are reproducible and clients
// overlap heavily — the same words recur across clients, which is the
// realistic "millions of users ask similar things" shape that makes the
// shared memo pay off. The process exits non-zero when the run achieved
// zero successful queries or any request failed, so CI smoke jobs can
// assert a healthy daemon with one invocation.
//
// With -workers, polcaload bypasses the daemon and load-tests a
// distributed oracle fleet directly: clients drive probe batches at the
// polcaworker /v1/probe endpoints through the same fan-out/merge client the
// learner uses, and the report gains a per-worker throughput breakdown — the
// quickest way to find a slow or failing fleet member before committing to a
// long distributed learn.
//
//	polcaload -addr http://localhost:8344 -clients 64 -duration 10s
//	polcaload -policy SRRIP-HP -assoc 4 -clients 1000 -words 4
//	polcaload -workers localhost:8435,localhost:8436 -duration 5s
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/blocks"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/remote"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8344", "base URL of the polcad daemon")
	policy := flag.String("policy", "LRU", "policy every query targets")
	assoc := flag.Int("assoc", 4, "associativity every query targets")
	clients := flag.Int("clients", 32, "concurrent simulated clients (one goroutine each)")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	seed := flag.Int64("seed", 1, "base random seed; client i draws words from seed+i")
	maxLen := flag.Int("max-len", 6, "maximum query word length (symbols are drawn uniformly)")
	words := flag.Int("words", 1, "query words per request (batched requests exercise the SoA engine)")
	tenant := flag.String("tenant", "polcaload", "X-Tenant header value (quota identity)")
	workers := flag.String("workers", "", "comma-separated polcaworker addresses (host:port,...): load-test the oracle fleet directly instead of a polcad daemon, with a per-worker throughput breakdown")
	flag.Parse()

	if *workers != "" {
		fleetLoad(*workers, *policy, *assoc, *clients, *duration, *seed, *maxLen, *words)
		return
	}

	client := &http.Client{Timeout: 30 * time.Second}
	url := *addr + "/v1/query"
	deadline := time.Now().Add(*duration)

	type result struct {
		requests, queries, errors int
		latencies                 []time.Duration
	}
	results := make([]result, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			res := &results[c]
			for time.Now().Before(deadline) {
				body, n := randomRequest(rng, *policy, *assoc, *maxLen, *words)
				t0 := time.Now()
				ok := post(client, url, *tenant, body)
				res.latencies = append(res.latencies, time.Since(t0))
				res.requests++
				if ok {
					res.queries += n
				} else {
					res.errors++
				}
			}
		}(c)
	}
	wg.Wait()

	var total result
	for _, r := range results {
		total.requests += r.requests
		total.queries += r.queries
		total.errors += r.errors
		total.latencies = append(total.latencies, r.latencies...)
	}
	qps := float64(total.queries) / duration.Seconds()
	fmt.Printf("polcaload: %d clients x %v against %s-%d\n", *clients, *duration, *policy, *assoc)
	fmt.Printf("requests: %d  queries: %d  errors: %d\n", total.requests, total.queries, total.errors)
	fmt.Printf("qps: %.1f\n", qps)
	if len(total.latencies) > 0 {
		sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(total.latencies)-1))
			return total.latencies[i].Round(time.Microsecond)
		}
		fmt.Printf("latency: p50 %v  p95 %v  p99 %v  max %v\n", pct(0.50), pct(0.95), pct(0.99), pct(1))
	}
	if total.queries == 0 {
		fmt.Fprintln(os.Stderr, "polcaload: FAIL: zero successful queries")
		os.Exit(1)
	}
	if total.errors > 0 {
		fmt.Fprintf(os.Stderr, "polcaload: FAIL: %d failed requests\n", total.errors)
		os.Exit(1)
	}
}

// randomRequest builds one /v1/query body with `words` random query words
// and returns it with the word count.
func randomRequest(rng *rand.Rand, policy string, assoc, maxLen, words int) ([]byte, int) {
	req := struct {
		Policy string  `json:"policy"`
		Assoc  int     `json:"assoc"`
		Words  [][]int `json:"words"`
	}{Policy: policy, Assoc: assoc}
	for w := 0; w < words; w++ {
		word := make([]int, 1+rng.Intn(maxLen))
		for i := range word {
			word[i] = rng.Intn(assoc + 1)
		}
		req.Words = append(req.Words, word)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body, words
}

// fleetLoad drives probe batches at the worker fleet directly through the
// same fan-out/merge client the learner uses, then reports aggregate and
// per-worker throughput. Exits non-zero on zero successful queries or any
// failed batch, like the daemon mode.
func fleetLoad(workerList, polName string, assoc, clients int, duration time.Duration, seed int64, maxLen, words int) {
	addrs := remote.SplitAddrs(workerList)
	pol, err := policy.New(polName, assoc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polcaload:", err)
		os.Exit(1)
	}
	scope := core.SimSnapshotScope(pol.Name(), assoc)
	fleet, err := remote.NewFleet(addrs, scope, remote.FleetOptions{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "polcaload: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "polcaload:", err)
		os.Exit(1)
	}
	defer fleet.Close()
	ctx := context.Background()
	if err := fleet.Ping(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "polcaload:", err)
		os.Exit(1)
	}

	deadline := time.Now().Add(duration)
	type result struct {
		requests, queries, errors int
		latencies                 []time.Duration
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			res := &results[c]
			for time.Now().Before(deadline) {
				qs := make([][]blocks.Block, words)
				for w := range qs {
					word := make([]blocks.Block, 1+rng.Intn(maxLen))
					for i := range word {
						word[i] = blocks.Interned(rng.Intn(assoc + 1))
					}
					qs[w] = word
				}
				t0 := time.Now()
				_, err := fleet.ProbeBatch(ctx, qs)
				res.latencies = append(res.latencies, time.Since(t0))
				res.requests++
				if err == nil {
					res.queries += len(qs)
				} else {
					res.errors++
				}
			}
		}(c)
	}
	wg.Wait()

	var total result
	for _, r := range results {
		total.requests += r.requests
		total.queries += r.queries
		total.errors += r.errors
		total.latencies = append(total.latencies, r.latencies...)
	}
	st := fleet.Stats()
	fmt.Printf("polcaload: %d clients x %v against a %d-worker fleet (scope %s)\n", clients, duration, len(addrs), scope)
	fmt.Printf("batches: %d  queries: %d  errors: %d\n", total.requests, total.queries, total.errors)
	fmt.Printf("qps: %.1f\n", float64(total.queries)/duration.Seconds())
	if len(total.latencies) > 0 {
		sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(total.latencies)-1))
			return total.latencies[i].Round(time.Microsecond)
		}
		fmt.Printf("latency: p50 %v  p95 %v  p99 %v  max %v\n", pct(0.50), pct(0.95), pct(0.99), pct(1))
	}
	for _, w := range st.Workers {
		fmt.Printf("worker %s: %d probes (%.1f/s) over %d requests, %d failures\n",
			w.Addr, w.Probes, float64(w.Probes)/duration.Seconds(), w.Requests, w.Failures)
	}
	if st.Hedges > 0 || st.Retries > 0 || st.Quarantined > 0 {
		fmt.Printf("resilience: %d hedged re-dispatches, %d request retries, %d workers quarantined, %d readmitted\n",
			st.Hedges, st.Retries, st.Quarantined, st.Readmitted)
	}
	if total.queries == 0 {
		fmt.Fprintln(os.Stderr, "polcaload: FAIL: zero successful queries")
		os.Exit(1)
	}
	if total.errors > 0 {
		fmt.Fprintf(os.Stderr, "polcaload: FAIL: %d failed batches\n", total.errors)
		os.Exit(1)
	}
}

// post issues one query request, draining the body so connections are
// reused; any non-200 status or transport error counts as a failure.
func post(client *http.Client, url, tenant string, body []byte) bool {
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}
