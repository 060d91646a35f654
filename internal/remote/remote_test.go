package remote

import (
	"bytes"
	"context"
	"errors"
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
// local compiled simulator answers, memo on or off.
func TestWorkerProbesMatchLocalSimulator(t *testing.T) {
	_, srv := startWorker(t, WorkerConfig{})
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
	for round := 0; round < 2; round++ { // round 2 replays from the worker memo
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
	}
}

// TestWorkerMemoAndFresh: the second identical batch answers from the memo
// (no new executions); fresh probes bypass it.
func TestWorkerMemoAndFresh(t *testing.T) {
	w, srv := startWorker(t, WorkerConfig{})
	rp, err := NewRemoteProber(srv.URL, "sim:FIFO-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	words := probeWords(20, 4)
	if _, err := rp.ProbeBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	execAfterFirst := w.executed.Load()
	if execAfterFirst == 0 {
		t.Fatal("no executions recorded")
	}
	if _, err := rp.ProbeBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	if got := w.executed.Load(); got != execAfterFirst {
		t.Errorf("memoized batch re-executed: %d -> %d executions", execAfterFirst, got)
	}
	if w.memoHits.Load() == 0 {
		t.Error("no memo hits recorded")
	}
	if _, err := rp.ProbeFresh(context.Background(), words[0]); err != nil {
		t.Fatal(err)
	}
	if got := w.executed.Load(); got != execAfterFirst+1 {
		t.Errorf("fresh probe did not re-execute: %d -> %d executions", execAfterFirst, got)
	}
}

// TestWorkerRejectsBadScopes: malformed scopes and block names are 4xx
// (non-transient) — client bugs, not worker health.
func TestWorkerRejectsBadScopes(t *testing.T) {
	_, srv := startWorker(t, WorkerConfig{})
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

// TestSnapshotShippingWarmsColdWorker: worker A builds a probe memo; after
// SyncSnapshots worker B answers the same words without executing its
// simulator once.
func TestSnapshotShippingWarmsColdWorker(t *testing.T) {
	wa, srvA := startWorker(t, WorkerConfig{})
	wb, srvB := startWorker(t, WorkerConfig{})
	f, err := NewFleet([]string{srvA.URL, srvB.URL}, "sim:LRU-4", FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	words := probeWords(40, 4)
	// Warm worker A only, through its own client.
	ra, err := NewRemoteProber(srvA.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	if wa.executed.Load() == 0 {
		t.Fatal("worker A executed nothing")
	}

	if warmed := f.SyncSnapshots(context.Background()); warmed != 1 {
		t.Fatalf("SyncSnapshots warmed %d workers, want 1", warmed)
	}
	rb, err := NewRemoteProber(srvB.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rb.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: shipped memo answers %v, original %v", i, got[i], want[i])
		}
	}
	if wb.executed.Load() != 0 {
		t.Errorf("worker B executed %d probes despite the shipped memo", wb.executed.Load())
	}
}

// TestSnapshotCorruptionDegradesToCold: a truncated or tampered snapshot
// over HTTP is rejected with the qstore.ErrCorrupt semantics — the worker
// stays exactly as warm as it was and keeps serving probes; a missing
// snapshot (cold worker) is ErrMissing semantics: a clean 404, not an
// error. The learn never fails over either.
func TestSnapshotCorruptionDegradesToCold(t *testing.T) {
	_, srvA := startWorker(t, WorkerConfig{})
	ra, err := NewRemoteProber(srvA.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}

	// ErrMissing: a cold worker has no snapshot; fetch reports (nil, nil).
	if data, err := ra.fetchSnapshot(context.Background()); err != nil || data != nil {
		t.Fatalf("cold fetch = (%d bytes, %v), want (nil, nil)", len(data), err)
	}

	// Warm the worker, snapshot it, and damage the payload.
	words := probeWords(30, 4)
	if _, err := ra.ProbeBatch(context.Background(), words); err != nil {
		t.Fatal(err)
	}
	good, err := ra.fetchSnapshot(context.Background())
	if err != nil || good == nil {
		t.Fatalf("warm fetch = (%v, %v)", good, err)
	}

	_, srvB := startWorker(t, WorkerConfig{})
	rb, err := NewRemoteProber(srvB.URL, "sim:LRU-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated":  good[:len(good)/2],
		"bit-flip":   append(append([]byte{}, good[:len(good)-3]...), good[len(good)-3]^0x40, good[len(good)-2], good[len(good)-1]),
		"bad magic":  append([]byte("NOTASNAP"), good...),
		"wrong kind": {0x50, 0x4f, 0x4c, 0x43, 0x41, 0x51, 0x53, 0x01}, // "POLCAQS" oracle header
	} {
		err := rb.shipSnapshot(context.Background(), bad)
		if err == nil {
			t.Fatalf("%s snapshot accepted", name)
		}
		if !strings.Contains(err.Error(), "422") {
			t.Errorf("%s snapshot rejected with %v, want 422 (corrupt)", name, err)
		}
	}
	// Scope mismatch is a caller bug, not damage: 409, not 422.
	rb2 := &RemoteProber{base: srvB.URL, hc: srvB.Client(), scope: "sim:FIFO-4", assoc: 4}
	if err := rb2.shipSnapshot(context.Background(), good); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("scope-mismatched snapshot: %v, want 409", err)
	}

	// The worker is still cold (damage never touched the memo) and serves.
	got, err := rb.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatalf("worker stopped serving after rejected snapshots: %v", err)
	}
	want, err := ra.ProbeBatch(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d diverged after rejected snapshots", i)
		}
	}
	// And the good snapshot still loads after all the rejects.
	if err := rb.shipSnapshot(context.Background(), good); err != nil {
		t.Fatalf("good snapshot rejected after damage attempts: %v", err)
	}
}

// TestWorkerSnapshotRoundTrip: the worker-level save/load path preserves
// the memo bit-for-bit through the binary format.
func TestWorkerSnapshotRoundTrip(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	e, err := w.engineFor("sim:LRU-4")
	if err != nil {
		t.Fatal(err)
	}
	words := probeWords(25, 4)
	for _, q := range words {
		if _, err := w.probe(context.Background(), e, q, false); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := w.WriteMemoSnapshot(&buf, "sim:LRU-4"); err != nil {
		t.Fatal(err)
	}
	w2 := NewWorker(WorkerConfig{})
	if err := w2.LoadMemoSnapshot(bytes.NewReader(buf.Bytes()), "sim:LRU-4"); err != nil {
		t.Fatal(err)
	}
	e2, err := w2.engineFor("sim:LRU-4")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := e.memo.CountSet(), e2.memo.CountSet(); a != b {
		t.Fatalf("round trip lost entries: %d -> %d", a, b)
	}
	// Wrong-scope load is ErrSnapshotScope, not corruption.
	w3 := NewWorker(WorkerConfig{})
	if err := w3.LoadMemoSnapshot(bytes.NewReader(buf.Bytes()), "sim:FIFO-4"); !errors.Is(err, polca.ErrSnapshotScope) {
		t.Fatalf("wrong-scope load: %v, want ErrSnapshotScope", err)
	}
}

// TestFleetProbationRewarmsRestartedWorker: a worker dies, is quarantined,
// and "restarts" (a fresh cold worker on the same address); probation
// re-admits it and the re-admission hook ships the richest memo over, so
// the restarted worker serves warm.
func TestFleetProbationRewarmsRestartedWorker(t *testing.T) {
	_, srvA := startWorker(t, WorkerConfig{})

	// Worker B is a proxy we can point at a live backend, kill, and revive.
	wbFirst, backB := startWorker(t, WorkerConfig{})
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
	_ = wbFirst

	// The probation cooldown is long enough that the worker "restarts"
	// while still quarantined — the first re-admission after the restart
	// runs the re-warm hook against the live replacement, so the slot
	// re-enters rotation already warm (no cold window).
	f, err := NewFleet([]string{srvA.URL, proxy.URL}, "sim:LRU-4", FleetOptions{
		Slots:    1,
		Cooldown: 300 * time.Millisecond,
		Retry:    &polca.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	// Warm worker A with every word the test will ever probe, so the
	// shipped memo is complete and the restarted worker need not execute.
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

	// "Restart" B as a fresh cold worker while it is still in quarantine.
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
	// The re-admission hook shipped worker A's memo: B answers its share
	// of the full word set without executing its simulator once.
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
	if wbSecond.executed.Load() != 0 {
		t.Errorf("restarted worker executed %d probes; the shipped memo should have answered all %d",
			wbSecond.executed.Load(), wbSecond.probes.Load())
	}
	if f.Stats().Shipped == 0 {
		t.Error("no snapshot recorded as shipped")
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
