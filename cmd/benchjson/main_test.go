package main

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestLoadBaselineRejectsDamagedFiles: -compare must fail fast with a clear,
// path-bearing message on every way a committed baseline can be damaged —
// most importantly a truncated JSON file, which is what an interrupted
// regeneration or a bad merge leaves behind.
func TestLoadBaselineRejectsDamagedFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	valid := `{"date":"2026-08-08","bench":".","benchtime":"1x","results":[{"name":"BenchmarkA-8","iterations":1,"ns_per_op":100}]}`

	if b, err := loadBaseline(write("good.json", valid)); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	} else if len(b.Results) != 1 || b.Results[0].Name != "BenchmarkA-8" {
		t.Fatalf("valid baseline parsed wrongly: %+v", b)
	}

	cases := []struct {
		name    string
		path    string
		wantMsg string
	}{
		{"missing", filepath.Join(dir, "nope.json"), "no such file"},
		{"empty", write("empty.json", ""), "empty"},
		{"truncated", write("trunc.json", valid[:len(valid)/2]), "truncated"},
		{"garbage", write("garbage.json", "goos: linux\nBenchmarkA 1 100 ns/op\n"), "not valid JSON"},
		{"wrong-shape", write("shape.json", `["BenchmarkA-8"]`), "not valid JSON"},
		{"no-results", write("nores.json", `{"date":"2026-08-08","results":[]}`), "no results"},
		{"nameless", write("noname.json", `{"results":[{"iterations":1,"ns_per_op":100}]}`), "no name"},
	}
	for _, c := range cases {
		_, err := loadBaseline(c.path)
		if err == nil {
			t.Errorf("%s: damaged baseline accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantMsg)
		}
		if c.name != "missing" && !strings.Contains(err.Error(), c.path) {
			t.Errorf("%s: error %q does not name the file", c.name, err)
		}
	}
}

func TestParseRun(t *testing.T) {
	raw := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkAblationAlgo/LRU-4/lstar-8     1   32312209 ns/op   4362 queries/op   16979544 B/op   241517 allocs/op
BenchmarkAblationAlgo/LRU-4/tree-8      1   26549108 ns/op   2672 queries/op   15828592 B/op   213317 allocs/op
PASS
ok   repro  26.689s
`
	b := parseRun(raw)
	if b.Goos != "linux" || b.Goarch != "amd64" || !strings.Contains(b.CPU, "Xeon") {
		t.Errorf("platform header parsed wrongly: %+v", b)
	}
	if len(b.Results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(b.Results))
	}
	r := b.Results[0]
	if r.Name != "BenchmarkAblationAlgo/LRU-4/lstar-8" || r.NsPerOp != 32312209 ||
		r.BytesPerOp != 16979544 || r.AllocsPerOp != 241517 || r.Metrics["queries/op"] != 4362 {
		t.Errorf("result parsed wrongly: %+v", r)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":          "BenchmarkX",
		"BenchmarkX-16":         "BenchmarkX",
		"BenchmarkX/LRU-4/go-8": "BenchmarkX/LRU-4/go",
		"BenchmarkX/LRU-4":      "BenchmarkX/LRU", // a trailing assoc is indistinguishable from a proc count, which is why matching tries exact names first
		"BenchmarkPlain":        "BenchmarkPlain",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCompareMatchesAcrossCoreCounts: the committed baseline may be recorded
// on a single-core machine (no -GOMAXPROCS suffix, so "BenchmarkTable2/LRU-4"
// is the exact name) while CI prints "BenchmarkTable2/LRU-4-4". Every suffix
// combination must pair up — exactly when both sides record Gomaxprocs,
// heuristically for legacy baselines — and regressions in such benchmarks
// must fail.
func TestCompareMatchesAcrossCoreCounts(t *testing.T) {
	cases := []struct {
		baseName, curName   string
		baseProcs, curProcs int
	}{
		{"BenchmarkTable2/LRU-4", "BenchmarkTable2/LRU-4-4", 1, 4},   // 1-core baseline, 4-core run
		{"BenchmarkTable2/LRU-4-8", "BenchmarkTable2/LRU-4", 8, 1},   // 8-core baseline, 1-core run
		{"BenchmarkTable2/LRU-4-8", "BenchmarkTable2/LRU-4-2", 8, 2}, // different core counts
		{"BenchmarkTable2/LRU-4", "BenchmarkTable2/LRU-4", 1, 1},     // identical
		{"BenchmarkTable2/LRU-4", "BenchmarkTable2/LRU-4-4", 0, 0},   // legacy baseline: heuristic fallback
		{"BenchmarkTable2/LRU-4-8", "BenchmarkTable2/LRU-4", 0, 0},
	}
	for _, c := range cases {
		base := baselineOf(Result{Name: c.baseName, NsPerOp: 1000, Metrics: map[string]float64{"probes/op": 100}})
		base.Gomaxprocs = c.baseProcs
		cur := baselineOf(Result{Name: c.curName, NsPerOp: 1000, Metrics: map[string]float64{"probes/op": 100}})
		cur.Gomaxprocs = c.curProcs
		rep := compareBaselines(base, cur, 0.25, 1.0)
		if rep.Compared != 1 || len(rep.Missing) != 0 || len(rep.Regressions) != 0 {
			t.Errorf("%s vs %s: not matched cleanly: %+v", c.baseName, c.curName, rep)
		}
		cur = baselineOf(Result{Name: c.curName, NsPerOp: 1000, Metrics: map[string]float64{"probes/op": 200}})
		cur.Gomaxprocs = c.curProcs
		if rep = compareBaselines(base, cur, 0.25, 1.0); len(rep.Regressions) != 1 {
			t.Errorf("%s vs %s: probe regression not caught: %+v", c.baseName, c.curName, rep)
		}
	}
}

// TestCompareDoesNotCrossMatchDigitNames: with Gomaxprocs recorded, a new
// benchmark whose own name ends in digits ("LRU-16") must NOT pair with a
// different baseline entry ("LRU-4") via over-eager suffix stripping — it is
// a new benchmark and is skipped.
func TestCompareDoesNotCrossMatchDigitNames(t *testing.T) {
	base := baselineOf(Result{Name: "BenchmarkTable2/LRU-4", NsPerOp: 1000, Metrics: map[string]float64{"probes/op": 100}})
	base.Gomaxprocs = 1
	cur := baselineOf(Result{Name: "BenchmarkTable2/LRU-16", NsPerOp: 9999, Metrics: map[string]float64{"probes/op": 5000}})
	cur.Gomaxprocs = 1
	rep := compareBaselines(base, cur, 0.25, 1.0)
	if rep.Compared != 0 || len(rep.Regressions) != 0 {
		t.Errorf("LRU-16 cross-matched LRU-4: %+v", rep)
	}
	if len(rep.Missing) != 1 {
		t.Errorf("LRU-4 baseline should be reported missing: %+v", rep)
	}
}

// TestCompareFlagsVanishedMetric: a deterministic counter the current run no
// longer reports must fail the gate, not compare as zero.
func TestCompareFlagsVanishedMetric(t *testing.T) {
	base := baselineOf(Result{Name: "BenchmarkA-8", NsPerOp: 1000, Metrics: map[string]float64{"probes/op": 100}})
	cur := baselineOf(Result{Name: "BenchmarkA-8", NsPerOp: 1000})
	rep := compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "vanished") {
		t.Errorf("vanished metric not flagged: %+v", rep)
	}
}

func baselineOf(results ...Result) *Baseline { return &Baseline{Results: results} }

// TestCompareReportsNewBenchmarks: a leg present in the current run but not
// in the baseline must be surfaced once in the New list (it is ungated
// until the baseline is regenerated — silence would read as coverage), and
// it must never fail the gate or count as compared. Matched legs must not
// leak into the list under either matching mode.
func TestCompareReportsNewBenchmarks(t *testing.T) {
	base := baselineOf(Result{Name: "BenchmarkOld-8", NsPerOp: 1000})
	base.Gomaxprocs = 8
	cur := baselineOf(
		Result{Name: "BenchmarkOld-4", NsPerOp: 1000},
		Result{Name: "BenchmarkShiny/new-leg-4", NsPerOp: 123456,
			Metrics: map[string]float64{"probes/op": 1e9}},
	)
	cur.Gomaxprocs = 4
	rep := compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.New) != 1 || rep.New[0] != "BenchmarkShiny/new-leg-4" {
		t.Errorf("new list wrong: %+v", rep.New)
	}
	if rep.Compared != 1 || len(rep.Regressions) != 0 || len(rep.Missing) != 0 {
		t.Errorf("new benchmark disturbed the comparison: %+v", rep)
	}

	// Legacy baselines (no Gomaxprocs) use heuristic matching; an entry
	// matched through the normalized fallback is not new.
	base = baselineOf(Result{Name: "BenchmarkOld-8", NsPerOp: 1000})
	cur = baselineOf(Result{Name: "BenchmarkOld-4", NsPerOp: 1000})
	if rep = compareBaselines(base, cur, 0.25, 1.0); len(rep.New) != 0 || rep.Compared != 1 {
		t.Errorf("legacy-matched benchmark reported as new: %+v", rep)
	}
}

func TestCompareDetectsRegressions(t *testing.T) {
	base := baselineOf(
		Result{Name: "BenchmarkA-8", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10,
			Metrics: map[string]float64{"probes/op": 50}},
		Result{Name: "BenchmarkB-8", NsPerOp: 2000},
	)

	// Identical run on a machine with a different core count: clean.
	cur := baselineOf(
		Result{Name: "BenchmarkA-16", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10,
			Metrics: map[string]float64{"probes/op": 50}},
		Result{Name: "BenchmarkB-16", NsPerOp: 2000},
	)
	rep := compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 0 || rep.Compared != 2 || len(rep.Missing) != 0 {
		t.Errorf("clean run reported %+v", rep)
	}

	// A deterministic counter past tolerance fails; timing within its own
	// (looser) tolerance does not.
	cur = baselineOf(
		Result{Name: "BenchmarkA-8", NsPerOp: 1900, BytesPerOp: 100, AllocsPerOp: 10,
			Metrics: map[string]float64{"probes/op": 80}},
		Result{Name: "BenchmarkB-8", NsPerOp: 2000},
	)
	rep = compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "probes/op") {
		t.Errorf("probe regression not caught: %+v", rep)
	}

	// An injected slowdown past the time tolerance fails.
	cur = baselineOf(
		Result{Name: "BenchmarkA-8", NsPerOp: 2100, BytesPerOp: 100, AllocsPerOp: 10,
			Metrics: map[string]float64{"probes/op": 50}},
		Result{Name: "BenchmarkB-8", NsPerOp: 2000},
	)
	rep = compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "ns/op") {
		t.Errorf("time regression not caught: %+v", rep)
	}

	// A renamed/removed benchmark is reported but does not fail the gate; a
	// brand-new benchmark passes but is surfaced in the New list.
	cur = baselineOf(
		Result{Name: "BenchmarkA-8", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10,
			Metrics: map[string]float64{"probes/op": 50}},
		Result{Name: "BenchmarkC-8", NsPerOp: 99999},
	)
	rep = compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 0 || rep.Compared != 1 {
		t.Errorf("rename handled wrongly: %+v", rep)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkB-8" {
		t.Errorf("missing list wrong: %+v", rep.Missing)
	}
	if len(rep.New) != 1 || rep.New[0] != "BenchmarkC-8" {
		t.Errorf("new list wrong: %+v", rep.New)
	}

	// Zero-valued baseline entries (no -benchmem, no metric) never divide.
	base = baselineOf(Result{Name: "BenchmarkD-8", NsPerOp: 1000})
	cur = baselineOf(Result{Name: "BenchmarkD-8", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 77})
	if rep = compareBaselines(base, cur, 0.25, 1.0); len(rep.Regressions) != 0 {
		t.Errorf("zero baseline compared: %+v", rep)
	}
}

// TestCompareQpsHigherIsBetter: the "qps" throughput metric is gated
// inverted — a drop below baseline/(1+timeTol) regresses, an increase never
// does (the plain rule would flag every improvement).
func TestCompareQpsHigherIsBetter(t *testing.T) {
	base := baselineOf(Result{Name: "BenchmarkDaemonQueries/LRU-4/8clients/warm-8",
		NsPerOp: 1000, Metrics: map[string]float64{"qps": 1000, "queries/op": 256}})

	// A big qps improvement is not a regression.
	cur := baselineOf(Result{Name: "BenchmarkDaemonQueries/LRU-4/8clients/warm-8",
		NsPerOp: 1000, Metrics: map[string]float64{"qps": 4000, "queries/op": 256}})
	if rep := compareBaselines(base, cur, 0.25, 1.0); len(rep.Regressions) != 0 {
		t.Errorf("qps improvement flagged: %+v", rep.Regressions)
	}

	// Within the inverted time tolerance (1000/(1+1.0) = 500): clean.
	cur = baselineOf(Result{Name: "BenchmarkDaemonQueries/LRU-4/8clients/warm-8",
		NsPerOp: 1000, Metrics: map[string]float64{"qps": 600, "queries/op": 256}})
	if rep := compareBaselines(base, cur, 0.25, 1.0); len(rep.Regressions) != 0 {
		t.Errorf("tolerable qps dip flagged: %+v", rep.Regressions)
	}

	// Past it: regression, attributed to qps.
	cur = baselineOf(Result{Name: "BenchmarkDaemonQueries/LRU-4/8clients/warm-8",
		NsPerOp: 1000, Metrics: map[string]float64{"qps": 400, "queries/op": 256}})
	rep := compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "qps") {
		t.Errorf("qps collapse not caught: %+v", rep.Regressions)
	}

	// A vanished qps metric still fails like any other vanished counter.
	cur = baselineOf(Result{Name: "BenchmarkDaemonQueries/LRU-4/8clients/warm-8",
		NsPerOp: 1000, Metrics: map[string]float64{"queries/op": 256}})
	rep = compareBaselines(base, cur, 0.25, 1.0)
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "vanished") {
		t.Errorf("vanished qps not flagged: %+v", rep.Regressions)
	}
}

// TestCompareExactCountersVsTolerance: the deterministic counters in
// exactUnits fail on any difference from the baseline, in either direction
// and however small, while ns/op and qps keep -time-tolerance and B/op,
// allocs/op and other custom metrics keep -tolerance.
func TestCompareExactCountersVsTolerance(t *testing.T) {
	baseRes := Result{Name: "BenchmarkTable2/SRRIP-FP-4", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10,
		Metrics: map[string]float64{"widgets/op": 100, "qps": 1000, "cold-ns": 1000}}
	for unit := range exactUnits {
		baseRes.Metrics[unit] = 224313
	}
	base := baselineOf(baseRes)
	run := func(edit func(r *Result)) compareReport {
		r := baseRes
		r.Metrics = make(map[string]float64, len(baseRes.Metrics))
		for k, v := range baseRes.Metrics {
			r.Metrics[k] = v
		}
		edit(&r)
		return compareBaselines(base, baselineOf(r), 0.25, 1.0)
	}

	if rep := run(func(*Result) {}); len(rep.Regressions) != 0 {
		t.Fatalf("identical run flagged: %v", rep.Regressions)
	}
	for unit := range exactUnits {
		for _, delta := range []float64{+1, -1} {
			rep := run(func(r *Result) { r.Metrics[unit] += delta })
			if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], unit) ||
				!strings.Contains(rep.Regressions[0], "exactly") {
				t.Errorf("%s off by %+g not held exact: %v", unit, delta, rep.Regressions)
			}
		}
	}

	// Toleranced values: inside their tolerance pass, past it fail.
	within := run(func(r *Result) {
		r.NsPerOp, r.Metrics["qps"], r.Metrics["cold-ns"] = 1900, 600, 1900
		r.BytesPerOp, r.AllocsPerOp, r.Metrics["widgets/op"] = 120, 12, 120
	})
	if len(within.Regressions) != 0 {
		t.Errorf("values inside their tolerance flagged: %v", within.Regressions)
	}
	past := run(func(r *Result) {
		r.NsPerOp, r.Metrics["qps"], r.Metrics["cold-ns"] = 2100, 400, 2100
		r.BytesPerOp, r.AllocsPerOp, r.Metrics["widgets/op"] = 130, 13, 130
	})
	if len(past.Regressions) != 6 {
		t.Errorf("values past their tolerance: got %d regressions, want 6: %v", len(past.Regressions), past.Regressions)
	}
	for _, r := range append(within.Regressions, past.Regressions...) {
		if strings.Contains(r, "exactly") {
			t.Errorf("toleranced value gated exactly: %s", r)
		}
	}
}

// TestMergeSamplesKeepsBestAndFlagsUnstableCounters: the repeated samples
// of one leg fold into its lowest ns/op, allocs/op and custom metric and
// its highest qps, and a deterministic counter that differs between two
// samples is reported once.
func TestMergeSamplesKeepsBestAndFlagsUnstableCounters(t *testing.T) {
	raw := `BenchmarkA-2   1   300 ns/op   10 qps   7 probes/op   9 wall-ms   6 allocs/op
BenchmarkB-2   1   50 ns/op   7 probes/op
BenchmarkA-2   1   100 ns/op   30 qps   7 probes/op   8 wall-ms   5 allocs/op
BenchmarkB-2   1   60 ns/op   8 probes/op
BenchmarkA-2   1   200 ns/op   20 qps   7 probes/op   12 wall-ms   4 allocs/op
BenchmarkB-2   1   40 ns/op   9 probes/op
`
	merged, unstable := mergeSamples(parseRun(raw).Results)
	if len(merged) != 2 || merged[0].Name != "BenchmarkA-2" || merged[1].Name != "BenchmarkB-2" {
		t.Fatalf("merged %+v, want A then B", merged)
	}
	a := merged[0]
	if a.NsPerOp != 100 || a.AllocsPerOp != 4 || a.Metrics["qps"] != 30 || a.Metrics["wall-ms"] != 8 || a.Metrics["probes/op"] != 7 {
		t.Errorf("A merged to %+v, want ns/op 100, allocs/op 4, qps 30, wall-ms 8, probes/op 7", a)
	}
	if merged[1].NsPerOp != 40 {
		t.Errorf("B merged to %v ns/op, want 40", merged[1].NsPerOp)
	}
	if len(unstable) != 1 || !strings.Contains(unstable[0], "BenchmarkB-2 probes/op") {
		t.Errorf("unstable %q, want one report of B's probes/op", unstable)
	}
}

// TestCompareRunsAtBaselineGomaxprocs: compare mode runs the suite at the
// baseline's recorded GOMAXPROCS, whatever the runner's core count, so
// allocations that follow the core count compare like with like; record
// mode and legacy baselines run at the process's own GOMAXPROCS.
func TestCompareRunsAtBaselineGomaxprocs(t *testing.T) {
	own := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		base *Baseline
		want int
	}{
		{"record mode", nil, own},
		{"baseline at 1", &Baseline{Gomaxprocs: 1}, 1},
		{"baseline at 8", &Baseline{Gomaxprocs: 8}, 8},
		{"legacy baseline", &Baseline{}, own},
	}
	for _, c := range cases {
		procs := benchProcs(c.base)
		if procs != c.want {
			t.Errorf("%s: runs at GOMAXPROCS %d, want %d", c.name, procs, c.want)
		}
		args := testArgs(".", "1x", true, "repro", procs)
		want := "-cpu=" + strconv.Itoa(c.want)
		if !slices.Contains(args, want) {
			t.Errorf("%s: go %s lacks %s", c.name, strings.Join(args, " "), want)
		}
		if args[len(args)-1] != "repro" || !slices.Contains(args, "-short") {
			t.Errorf("%s: go %s: want -short and the package last", c.name, strings.Join(args, " "))
		}
	}
}
