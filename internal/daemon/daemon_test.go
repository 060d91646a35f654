package daemon

// Lifecycle tests for the polcad server: these drive the real HTTP surface
// (httptest over Handler) and assert the daemon's multi-tenant claims by
// observable counters — probe counts for single-flighting, 429s for quotas,
// snapshot files and byte-identical models for drain/resume.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faulty"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// testServer wires a Server to an httptest listener and tears both down.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, ts
}

// postJSON posts body to url and decodes the JSON response into out,
// returning the raw response for header/status checks.
func postJSON(t *testing.T, client *http.Client, url, tenant string, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, data, err)
		}
	}
	return resp
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st jobStatus
		getJSON(t, base+"/v1/jobs/"+id, &st)
		switch st.State {
		case jobDone, jobFailed, jobCanceled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobStatus{}
}

// referenceModel learns policyName-assoc through the same library seams the
// daemon uses (core.NewSimOracle + learn.Learn) and returns the serialized
// machine — the byte-identical target for daemon-served models.
func referenceModel(t *testing.T, policyName string, assoc int, opt learn.Options) []byte {
	t.Helper()
	oracle, _, _, err := core.NewSimOracle(policyName, assoc, core.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := learn.Learn(context.Background(), oracle, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Machine.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestQueryEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{})
	var resp queryResponse
	hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", "",
		`{"policy":"lru","assoc":4,"word":[4,4,4,4,0,4]}`, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", hr.StatusCode)
	}
	if resp.Policy != "LRU" {
		t.Errorf("policy not canonicalized: %q", resp.Policy)
	}
	want := []int{0, 1, 2, 3, -1, 1}
	if len(resp.Outputs) != 1 || fmt.Sprint(resp.Outputs[0]) != fmt.Sprint(want) {
		t.Errorf("outputs = %v, want [%v]", resp.Outputs, want)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"both word and words", `{"policy":"LRU","assoc":4,"word":[0],"words":[[0]]}`, 400, "bad_request"},
		{"no words", `{"policy":"LRU","assoc":4}`, 400, "bad_request"},
		{"empty word", `{"policy":"LRU","assoc":4,"words":[[]]}`, 400, "bad_request"},
		{"zero assoc", `{"policy":"LRU","word":[0]}`, 400, "bad_request"},
		{"symbol out of range", `{"policy":"LRU","assoc":4,"word":[5]}`, 400, "bad_request"},
		{"unknown field", `{"policy":"LRU","assoc":4,"word":[0],"bogus":1}`, 400, "bad_request"},
		{"unknown policy", `{"policy":"NOPE","assoc":4,"word":[0]}`, 404, "unknown_policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ed errorDoc
			hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", "", tc.body, &ed)
			if hr.StatusCode != tc.status || ed.Code != tc.code {
				t.Errorf("got %d/%q, want %d/%q (%s)", hr.StatusCode, ed.Code, tc.status, tc.code, ed.Error)
			}
		})
	}
}

// TestQuerySingleFlight proves cross-tenant coalescing with backend probe
// counters: N concurrent identical queries against a stalled backend must
// cost exactly as many probes as one isolated query, and at least one
// response must be marked coalesced.
func TestQuerySingleFlight(t *testing.T) {
	const word = `{"policy":"LRU","assoc":4,"word":[4,4,4,4,0,4]}`
	// Every probe stalls 5ms so the concurrent duplicates below are
	// reliably in flight together. (The fault wrapper also hides the
	// whole-word prober interface, changing the probe granularity — which
	// is why the isolated baseline must run on the same config.)
	stalled := core.SimOptions{Faults: &faulty.Plan{Seed: 1, StallRate: 1, StallFor: 5 * time.Millisecond}}

	// Isolated run: one query on a fresh server establishes the probe cost.
	soloSrv, soloTS := testServer(t, Config{Sim: stalled})
	postJSON(t, soloTS.Client(), soloTS.URL+"/v1/query", "", word, nil)
	soloProbes := soloSrv.status().Engines[0].Stats.Probes
	if soloProbes == 0 {
		t.Fatal("isolated query issued no probes")
	}

	// Shared run: the duplicates must wait on the leader instead of
	// re-probing.
	srv, ts := testServer(t, Config{Sim: stalled})
	const clients = 8
	var wg sync.WaitGroup
	coalesced := make([]bool, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var resp queryResponse
			postJSON(t, ts.Client(), ts.URL+"/v1/query", fmt.Sprintf("tenant-%d", c), word, &resp)
			coalesced[c] = resp.Coalesced
		}(c)
	}
	wg.Wait()

	probes := srv.status().Engines[0].Stats.Probes
	if probes != soloProbes {
		t.Errorf("%d concurrent identical queries cost %d probes, want %d (single-flight failed)",
			clients, probes, soloProbes)
	}
	var anyShared bool
	for _, c := range coalesced {
		anyShared = anyShared || c
	}
	if !anyShared {
		t.Error("no response was marked coalesced")
	}
}

func TestQuotaExhaustion(t *testing.T) {
	// Effectively non-refilling bucket with room for 2 one-word queries.
	_, ts := testServer(t, Config{QuotaRate: 1e-9, QuotaBurst: 2})
	const body = `{"policy":"LRU","assoc":2,"word":[0]}`

	for i := 0; i < 2; i++ {
		hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", "alice", body, nil)
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, hr.StatusCode)
		}
		if hr.Header.Get("X-Quota-Limit") != "2" {
			t.Errorf("X-Quota-Limit = %q, want 2", hr.Header.Get("X-Quota-Limit"))
		}
	}
	var ed errorDoc
	hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", "alice", body, &ed)
	if hr.StatusCode != http.StatusTooManyRequests || ed.Code != "quota_exhausted" {
		t.Fatalf("exhausted tenant got %d/%q, want 429/quota_exhausted", hr.StatusCode, ed.Code)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Quotas are per tenant: a different identity still has budget.
	if hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", "bob", body, nil); hr.StatusCode != http.StatusOK {
		t.Errorf("fresh tenant got %d, want 200", hr.StatusCode)
	}
	// Jobs cost JobCost tokens, far above alice's remaining budget.
	hr = postJSON(t, ts.Client(), ts.URL+"/v1/jobs", "alice", `{"policy":"LRU","assoc":2}`, &ed)
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Errorf("job submit on exhausted tenant got %d, want 429", hr.StatusCode)
	}
}

// TestJobModelParity runs a learning job through the HTTP API and requires
// the served model to be byte-identical to one learned directly through the
// library pipeline (the same bytes cmd/polca -save-model writes).
func TestJobModelParity(t *testing.T) {
	models := t.TempDir()
	_, ts := testServer(t, Config{ModelsDir: models})

	var st jobStatus
	hr := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", "", `{"policy":"LRU","assoc":4}`, &st)
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", hr.StatusCode)
	}
	if loc := hr.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	st = waitJob(t, ts.URL, st.ID)
	if st.State != jobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Learn == nil || st.Learn.OutputQueries == 0 {
		t.Error("done job has no learner stats")
	}
	if st.States == 0 || st.ModelURL == "" {
		t.Errorf("done job missing model info: states=%d url=%q", st.States, st.ModelURL)
	}

	resp, err := http.Get(ts.URL + st.ModelURL)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceModel(t, "LRU", 4, learn.Options{Depth: 1, MaxStates: 100000})
	if !bytes.Equal(served, want) {
		t.Errorf("daemon model differs from library pipeline model (%d vs %d bytes)", len(served), len(want))
	}

	// The artifact in the models dir is the same bytes, world-readable, and
	// browsable through /v1/models.
	if st.Artifact != "LRU-4.learned.json" {
		t.Fatalf("artifact = %q", st.Artifact)
	}
	onDisk, err := os.ReadFile(filepath.Join(models, st.Artifact))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("artifact file differs from model")
	}
	if info, err := os.Stat(filepath.Join(models, st.Artifact)); err == nil && info.Mode().Perm() != 0o644 {
		t.Errorf("artifact mode = %v, want 0644", info.Mode().Perm())
	}
	var list struct {
		Models []modelEntry `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &list)
	if len(list.Models) != 1 || list.Models[0].Name != st.Artifact {
		t.Errorf("model list = %+v", list.Models)
	}
	var viaAPI json.RawMessage
	getJSON(t, ts.URL+"/v1/models/"+st.Artifact, &viaAPI)
	if !bytes.Equal(bytes.TrimSpace(viaAPI), bytes.TrimSpace(want)) {
		t.Error("GET /v1/models/{name} differs from model")
	}

	// A tree job and concurrent /v1/query traffic share one engine: every
	// query answer must match the ground truth, and the job must still
	// serve the library pipeline's model.
	truth, err := mealy.FromPolicy(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	hr = postJSON(t, ts.Client(), ts.URL+"/v1/jobs", "", `{"policy":"New1","assoc":4,"algo":"tree"}`, &st)
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("tree submit status = %d", hr.StatusCode)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 25; i++ {
				words := make([][]int, 1+rng.Intn(4))
				for j := range words {
					words[j] = make([]int, 1+rng.Intn(8))
					for k := range words[j] {
						words[j][k] = rng.Intn(truth.NumInputs)
					}
				}
				body, _ := json.Marshal(queryRequest{Policy: "New1", Assoc: 4, Words: words})
				var resp queryResponse
				if hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", fmt.Sprintf("tenant-%d", c), string(body), &resp); hr.StatusCode != http.StatusOK {
					t.Errorf("query status = %d", hr.StatusCode)
					return
				}
				for j, w := range words {
					if fmt.Sprint(resp.Outputs[j]) != fmt.Sprint(truth.Run(w)) {
						t.Errorf("word %v answered %v during the job, truth %v", w, resp.Outputs[j], truth.Run(w))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st = waitJob(t, ts.URL, st.ID)
	if st.State != jobDone {
		t.Fatalf("tree job ended %s: %s", st.State, st.Error)
	}
	var treeModel json.RawMessage
	getJSON(t, ts.URL+st.ModelURL, &treeModel)
	wantTree := referenceModel(t, "New1", 4, learn.Options{Algo: learn.AlgoTree, Depth: 1, MaxStates: 100000})
	if !bytes.Equal(bytes.TrimSpace(treeModel), bytes.TrimSpace(wantTree)) {
		t.Error("tree job under concurrent queries served a different model than the library pipeline")
	}
}

// TestDrainResume kills a daemon mid-job and requires (a) the drain to
// cancel the job and leave a loadable checkpoint, and (b) a restarted
// daemon to resume warm from it, finish the job with strictly fewer probes
// than a cold run, and serve the byte-identical model.
func TestDrainResume(t *testing.T) {
	snaps := t.TempDir()
	stall := &faulty.Plan{Seed: 1, StallRate: 1, StallFor: 500 * time.Microsecond}

	// Cold reference run: total probe cost of the whole job, and the model.
	coldSrv, coldTS := testServer(t, Config{})
	var coldJob jobStatus
	postJSON(t, coldTS.Client(), coldTS.URL+"/v1/jobs", "", `{"policy":"LRU","assoc":4}`, &coldJob)
	coldJob = waitJob(t, coldTS.URL, coldJob.ID)
	if coldJob.State != jobDone {
		t.Fatalf("cold job ended %s: %s", coldJob.State, coldJob.Error)
	}
	coldProbes := coldSrv.status().Engines[0].Stats.Probes

	// First daemon: slow probes so the job is reliably mid-flight, then
	// drain. The canceled job's store must land in the snapshot.
	srv1 := New(Config{SnapshotDir: snaps, CheckpointEvery: 64,
		Sim: core.SimOptions{Faults: stall}})
	ts1 := httptest.NewServer(srv1.Handler())
	var st jobStatus
	hr := postJSON(t, ts1.Client(), ts1.URL+"/v1/jobs", "", `{"policy":"LRU","assoc":4}`, &st)
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", hr.StatusCode)
	}
	for i := 0; srv1.status().Engines[0].Stats.Probes < 50; i++ {
		if i > 1000 {
			t.Fatal("job never started probing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	// Close returned, so the job goroutine has unwound; read its final
	// state from the server directly (the listener is gone).
	j, ok := srv1.jobByID(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	final := j.snapshot()
	if final.State != jobCanceled {
		t.Fatalf("drained job state = %s, want canceled", final.State)
	}
	snapPath := core.SnapshotPathInDir(snaps, "LRU", 4)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("drain left no snapshot: %v", err)
	}

	// Second daemon on the same snapshot dir: warm engine, resumed job,
	// same model, strictly fewer probes than the cold run.
	srv2, ts2 := testServer(t, Config{SnapshotDir: snaps, CheckpointEvery: 64})
	var st2 jobStatus
	postJSON(t, ts2.Client(), ts2.URL+"/v1/jobs", "", `{"policy":"LRU","assoc":4}`, &st2)
	status := srv2.status()
	if len(status.Engines) != 1 || !status.Engines[0].Warm {
		t.Errorf("resumed engine not warm: %+v", status.Engines)
	}
	st2 = waitJob(t, ts2.URL, st2.ID)
	if st2.State != jobDone {
		t.Fatalf("resumed job ended %s: %s", st2.State, st2.Error)
	}
	resumeProbes := srv2.status().Engines[0].Stats.Probes
	if resumeProbes >= coldProbes {
		t.Errorf("resumed job probes = %d, want < cold %d", resumeProbes, coldProbes)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + st2.ID + "/model")
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	coldResp, err := http.Get(coldTS.URL + "/v1/jobs/" + coldJob.ID + "/model")
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := io.ReadAll(coldResp.Body)
	coldResp.Body.Close()
	if !bytes.Equal(resumed, cold) {
		t.Errorf("resumed model differs from cold model (%d vs %d bytes)", len(resumed), len(cold))
	}
}

// TestDrainingRefusal checks that a draining daemon turns work away with
// 503/draining instead of racing the final snapshots.
func TestDrainingRefusal(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var ed errorDoc
	hr := postJSON(t, ts.Client(), ts.URL+"/v1/query", "", `{"policy":"LRU","assoc":2,"word":[0]}`, &ed)
	if hr.StatusCode != http.StatusServiceUnavailable || ed.Code != "draining" {
		t.Errorf("query on draining daemon got %d/%q, want 503/draining", hr.StatusCode, ed.Code)
	}
	var status statusDoc
	getJSON(t, ts.URL+"/v1/status", &status)
	if !status.Draining {
		t.Error("status does not report draining")
	}
}

// TestJobEvents consumes the SSE stream of a running job and requires at
// least one progress event with live oracle counters followed by a
// terminal done event, after which the stream closes.
func TestJobEvents(t *testing.T) {
	_, ts := testServer(t, Config{
		EventInterval: 5 * time.Millisecond,
		Sim:           core.SimOptions{Faults: &faulty.Plan{Seed: 1, StallRate: 1, StallFor: 200 * time.Microsecond}},
	})
	var st jobStatus
	postJSON(t, ts.Client(), ts.URL+"/v1/jobs", "", `{"policy":"LRU","assoc":2}`, &st)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	var lastData jobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, name)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &lastData); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("events = %v, want trailing done", events)
	}
	var progress int
	for _, e := range events {
		if e == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Errorf("no progress events before done: %v", events)
	}
	if lastData.State != jobDone || lastData.ModelURL == "" {
		t.Errorf("terminal payload incomplete: %+v", lastData)
	}
	// A stream opened after completion yields exactly the terminal event.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if c := strings.Count(string(replay), "event: "); c != 1 || !strings.Contains(string(replay), "event: done") {
		t.Errorf("post-completion stream = %q, want single done event", replay)
	}
}

// TestJobCancel checks DELETE /v1/jobs/{id} cancels a running job.
func TestJobCancel(t *testing.T) {
	_, ts := testServer(t, Config{
		Sim: core.SimOptions{Faults: &faulty.Plan{Seed: 1, StallRate: 1, StallFor: time.Millisecond}},
	})
	var st jobStatus
	postJSON(t, ts.Client(), ts.URL+"/v1/jobs", "", `{"policy":"LRU","assoc":4}`, &st)
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.State != jobCanceled && out.State != jobDone {
		t.Fatalf("canceled job state = %s", out.State)
	}
}

func TestValidModelName(t *testing.T) {
	good := []string{"LRU-4.learned.json", "PLRU-8.json", "srrip_hp-4.learned.json"}
	bad := []string{"", "x", "../../etc/passwd", "a/b.json", `a\b.json`, "a..json.json/", "model.json5", "mo del.json"}
	for _, n := range good {
		if !validModelName(n) {
			t.Errorf("validModelName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validModelName(n) {
			t.Errorf("validModelName(%q) = true, want false", n)
		}
	}
}
