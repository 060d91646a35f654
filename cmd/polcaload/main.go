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
//	polcaload -addr http://localhost:8344 -clients 64 -duration 10s
//	polcaload -policy SRRIP-HP -assoc 4 -clients 1000 -words 4
package main

import (
	"bytes"
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
	flag.Parse()

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
