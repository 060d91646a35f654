package remote

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/polca"
	"repro/internal/policy"
)

func TestParseSimScope(t *testing.T) {
	cases := []struct {
		scope  string
		name   string
		assoc  int
		wantOK bool
	}{
		{"sim:LRU-4", "LRU", 4, true},
		{"sim:SRRIP-FP-8", "SRRIP-FP", 8, true},
		{"sim:New1-4", "New1", 4, true},
		{"hw:skylake/L2", "", 0, false},
		{"sim:LRU", "", 0, false},
		{"sim:LRU-0", "", 0, false},
		{"sim:-4", "", 0, false},
	}
	for _, c := range cases {
		name, assoc, err := ParseSimScope(c.scope)
		if c.wantOK != (err == nil) {
			t.Errorf("ParseSimScope(%q) error = %v, want ok=%v", c.scope, err, c.wantOK)
			continue
		}
		if c.wantOK && (name != c.name || assoc != c.assoc) {
			t.Errorf("ParseSimScope(%q) = (%q, %d), want (%q, %d)", c.scope, name, assoc, c.name, c.assoc)
		}
	}
}

func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		list string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 ,  b:2 ", []string{"a:1", "b:2"}},
		{"a:1,,b:2", []string{"a:1", "b:2"}},
		{"a:1,b:2,", []string{"a:1", "b:2"}},
		{"http://h:8435, h2:8435", []string{"http://h:8435", "h2:8435"}},
	}
	for _, c := range cases {
		if got := SplitAddrs(c.list); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitAddrs(%q) = %q, want %q", c.list, got, c.want)
		}
	}
}

func TestOutcomeWire(t *testing.T) {
	ocs := []cache.Outcome{cache.Hit, cache.Miss, cache.Miss, cache.Hit}
	s := encodeOutcomes(ocs)
	if s != "HMMH" {
		t.Fatalf("encoded %q", s)
	}
	back, err := decodeOutcomes(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ocs {
		if back[i] != ocs[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if _, err := decodeOutcomes("HM", 3); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := decodeOutcomes("HX", 2); err == nil {
		t.Error("malformed outcome accepted")
	}
}

// startWorker boots a worker over httptest and returns its base URL.
func startWorker(t *testing.T, cfg WorkerConfig) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(cfg)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return w, srv
}

// probeWords is a deterministic mixed bag of reset-rooted queries.
func probeWords(n, assoc int) [][]blocks.Block {
	words := make([][]blocks.Block, n)
	for i := range words {
		var q []blocks.Block
		for j := 0; j <= i%7; j++ {
			q = append(q, blocks.Name((i*3+j*5)%(assoc*2+3)))
		}
		words[i] = q
	}
	return words
}

// TestWorkerProbesMatchLocalSimulator: a worker answers exactly what the
// local compiled simulator answers, and a repeated batch executes again
// (the worker keeps no memo).
func TestWorkerProbesMatchLocalSimulator(t *testing.T) {
	w, srv := startWorker(t, WorkerConfig{})
	rp, err := NewRemoteProber(srv.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New("LRU", 4)
	if err != nil {
		t.Fatal(err)
	}
	local := polca.NewSimProber(pol)
	words := probeWords(60, 4)
	for round := 0; round < 2; round++ {
		got, err := rp.ProbeBatch(context.Background(), words)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range words {
			want, err := local.Probe(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("round %d query %d (%v): worker says %v, local says %v", round, i, q, got[i], want)
			}
		}
		if got, want := w.Totals().Probes, int64((round+1)*len(words)); got != want {
			t.Fatalf("round %d: worker executed %d probes, want %d", round, got, want)
		}
	}
}

// TestWorkerRejectsBadScopes: malformed scopes and block names are 4xx
// (non-transient) — client bugs, not worker health — and the worker keeps
// serving after each.
func TestWorkerRejectsBadScopes(t *testing.T) {
	w, srv := startWorker(t, WorkerConfig{})
	for _, scope := range []string{"sim:NoSuchPolicy-4", "hw:skylake", "sim:LRU--1"} {
		rp := &RemoteProber{base: srv.URL, hc: srv.Client(), scope: scope, assoc: 4}
		_, err := rp.Probe(context.Background(), []blocks.Block{"A"})
		if err == nil {
			t.Errorf("scope %q accepted", scope)
			continue
		}
		if polca.IsTransient(err) {
			t.Errorf("scope %q rejected transiently: %v", scope, err)
		}
	}
	rp, err := NewRemoteProber(srv.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	pastMax := blocks.Name(blocks.MaxIndex + 1)
	for _, b := range []blocks.Block{"", "a", "A0", "A01", pastMax} {
		_, err := rp.ProbeBatch(context.Background(), [][]blocks.Block{{"A", "B"}, {"A", b, "C"}})
		if err == nil {
			t.Errorf("block name %q accepted", b)
		} else if polca.IsTransient(err) || !strings.Contains(err.Error(), "400") {
			t.Errorf("block name %q: %v, want a non-transient 400", b, err)
		}
		if _, err := rp.Probe(context.Background(), []blocks.Block{"E", "A"}); err != nil {
			t.Fatalf("worker stopped serving after block name %q: %v", b, err)
		}
	}
	// A rejected batch executes none of its queries, not even the valid
	// ones ahead of the bad name.
	if got := w.Totals().Probes; got != 5 {
		t.Errorf("worker executed %d probes, want 5 (one per follow-up probe)", got)
	}
}

// TestFleetMatchesLocalAndPreservesOrder: a fleet over three workers
// answers a large batch exactly like the local simulator, in submission
// order, spreading traffic over every worker.
func TestFleetMatchesLocalAndPreservesOrder(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		_, srv := startWorker(t, WorkerConfig{})
		urls = append(urls, srv.URL)
	}
	f, err := NewFleet(urls, "sim:PLRU-4", FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New("PLRU", 4)
	if err != nil {
		t.Fatal(err)
	}
	local := polca.NewSimProber(pol)
	words := probeWords(200, 4)
	got, err := f.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(words) {
		t.Fatalf("%d outcomes for %d queries", len(got), len(words))
	}
	for i, q := range words {
		want, err := local.Probe(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("query %d (%v): fleet says %v, local says %v", i, q, got[i], want)
		}
	}
	st := f.Stats()
	for _, ws := range st.Workers {
		if ws.Probes == 0 {
			t.Errorf("worker %s answered no probes; fan-out did not spread", ws.Addr)
		}
	}
	if f.FleetWidth() != 3*2 {
		t.Errorf("FleetWidth = %d, want 6 (3 workers x 2 slots)", f.FleetWidth())
	}
}

// TestFleetSurvivesDeadWorker: one of three workers goes dark mid-run; the
// fleet quarantines it and the batch answers stay correct and complete.
func TestFleetSurvivesDeadWorker(t *testing.T) {
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < 3; i++ {
		_, srv := startWorker(t, WorkerConfig{})
		urls = append(urls, srv.URL)
		servers = append(servers, srv)
	}
	f, err := NewFleet(urls, "sim:LRU-4", FleetOptions{
		Cooldown: time.Hour, // keep the dead worker out for the whole test
		Retry:    &polca.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	words := probeWords(50, 4)
	want, err := f.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	servers[1].Close() // worker dies for good
	for round := 0; round < 4; round++ {
		got, err := f.ProbeBatch(context.Background(), words)
		if err != nil {
			t.Fatalf("round %d after worker death: %v", round, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d query %d changed answer after worker death", round, i)
			}
		}
	}
	if f.Stats().Quarantined == 0 {
		t.Error("dead worker never quarantined")
	}
}

// TestFleetHedgesStragglers: a worker that stalls forever is out-raced by
// the hedge re-dispatch; the batch completes fast and the hedge counter
// records the re-dispatch.
func TestFleetHedgesStragglers(t *testing.T) {
	_, fast := startWorker(t, WorkerConfig{})
	var stalled atomic.Bool
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/probe") {
			stalled.Store(true)
			select { // straggle until the client gives up or the test ends
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		rw.WriteHeader(http.StatusNotFound)
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(release) }) // LIFO: unblock handlers before Close waits on them

	f, err := NewFleet([]string{stall.URL, fast.URL}, "sim:LRU-4", FleetOptions{
		Slots:      1,
		HedgeAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	// Sub-batches land on both workers; the straggler's chunk must be
	// hedged onto the fast worker and the whole batch still answers.
	done := make(chan error, 1)
	var got []cache.Outcome
	go func() {
		var err error
		got, err = f.ProbeBatch(context.Background(), probeWords(8, 4))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hedging never rescued the stalled sub-batch")
	}
	if len(got) != 8 {
		t.Fatalf("%d outcomes for 8 queries", len(got))
	}
	if !stalled.Load() {
		t.Skip("straggler never saw traffic; nothing to hedge") // chunking sent all work to the fast worker
	}
	if f.Stats().Hedges == 0 {
		t.Error("straggler rescued without a recorded hedge")
	}
}

// TestFleetProbationRewarmsRestartedWorker: a worker dies, is quarantined,
// and "restarts" (a fresh worker on the same address); probation re-admits
// it, it serves traffic again, and no answer changes across the restart.
func TestFleetProbationRewarmsRestartedWorker(t *testing.T) {
	_, srvA := startWorker(t, WorkerConfig{})

	// Worker B is a proxy we can point at a live backend, kill, and revive.
	_, backB := startWorker(t, WorkerConfig{})
	var down atomic.Bool
	var target atomic.Value
	target.Store(backB.URL)
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(rw, "worker down", http.StatusBadGateway)
			return
		}
		// Forward verbatim to the current backend.
		url := target.Load().(string) + r.URL.Path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		rw.WriteHeader(resp.StatusCode)
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body) //nolint:errcheck
		rw.Write(buf.Bytes())   //nolint:errcheck
	}))
	t.Cleanup(proxy.Close)

	// The probation cooldown is long enough that the worker "restarts"
	// while still quarantined, so the first re-admission lands on the live
	// replacement.
	f, err := NewFleet([]string{srvA.URL, proxy.URL}, "sim:LRU-4", FleetOptions{
		Slots:    1,
		Cooldown: 300 * time.Millisecond,
		Retry:    &polca.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	// The reference answers, straight from worker A.
	words := probeWords(40, 4)
	ra, err := NewRemoteProber(srvA.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}

	// Kill B; drive traffic until it is quarantined. The fleet keeps
	// answering (worker A re-executes B's failed sub-batches).
	down.Store(true)
	for i := 0; f.Stats().Quarantined == 0; i++ {
		if i > 500 {
			t.Fatal("dead worker never quarantined")
		}
		if _, err := f.ProbeBatch(context.Background(), words[:4]); err != nil {
			t.Fatalf("fleet failed while worker down: %v", err)
		}
	}

	// "Restart" B as a fresh worker while it is still in quarantine.
	wbSecond, backB2 := startWorker(t, WorkerConfig{})
	target.Store(backB2.URL)
	down.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for f.Stats().Readmitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted worker never re-admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The re-admitted worker takes its share of the traffic again, and
	// every answer matches the reference.
	deadline = time.Now().Add(10 * time.Second)
	for wbSecond.probes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-admitted worker never served traffic")
		}
		got, err := f.ProbeBatch(context.Background(), words)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d changed answer across the restart", i)
			}
		}
	}
}

// TestFleetTotalLossFailsFast: when every worker in the fleet is gone, a
// probe batch must come back with a transient error within bounded time —
// never park forever waiting on probation. (The regression: Checkout used
// to block on the empty pool with no deadline, so the bounded retry and
// hedge layers above it never got to fail and a learn against a dead fleet
// hung instead of aborting.)
func TestFleetTotalLossFailsFast(t *testing.T) {
	_, srv := startWorker(t, WorkerConfig{})
	f, err := NewFleet([]string{srv.URL}, "sim:LRU-4", FleetOptions{
		Cooldown:   20 * time.Millisecond,
		HedgeAfter: 50 * time.Millisecond,
		Retry:      &polca.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	words := probeWords(8, 4)
	if _, err := f.ProbeBatch(context.Background(), words); err != nil {
		t.Fatalf("healthy fleet failed: %v", err)
	}

	srv.Close() // the whole fleet dies

	for round := 0; round < 3; round++ {
		done := make(chan error, 1)
		go func() {
			_, err := f.ProbeBatch(context.Background(), words)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("round %d: batch succeeded against a dead fleet", round)
			}
			if !polca.IsTransient(err) {
				t.Fatalf("round %d: total fleet loss surfaced non-transiently: %v", round, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: total fleet loss parked ProbeBatch (learner-hang regression)", round)
		}
	}
	if f.Stats().Quarantined == 0 {
		t.Error("dead fleet never quarantined")
	}
}
