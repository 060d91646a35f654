// Command benchjson seeds and extends the repository's performance
// trajectory: it runs the benchmark suite (go test -run=NONE -bench
// -benchtime=1x -count=3, -short by default) and writes the parsed results
// to a dated BENCH_<date>.json file, so successive PRs leave comparable
// machine-readable baselines behind. Each leg runs three times and is
// recorded by its best sample: the lowest ns/op, B/op, allocs/op and
// custom metric, the highest qps. The deterministic counters must read the
// same in all three samples, or the command fails.
//
// With -compare it becomes the CI regression gate: the fresh run, made at
// the baseline's recorded GOMAXPROCS, is compared against a committed
// baseline and the command exits nonzero when any named benchmark regresses
// past the tolerance. The counters the benchmarks derive from deterministic
// learner, oracle and synthesis runs (exactUnits:
// queries/op, probes/op, accesses/op, ...) must equal the baseline exactly,
// in either direction; B/op, allocs/op and any other custom metric are held
// to -tolerance; wall-clock ns/op, qps and custom wall-clock metrics (units
// ending in "-ns", such as a cold first run) — noisy at -benchtime=1x on
// shared runners — are held to the looser -time-tolerance. A benchmark present only
// in the baseline is reported but does not fail the gate (benchmarks get
// renamed); a benchmark present only in the current run passes but warns
// once — it is ungated until a regenerated baseline covers it. A deliberate
// perf-relevant change is acknowledged by regenerating the baseline in the
// same PR.
//
//	go run repro/cmd/benchjson                  # writes BENCH_<today>.json
//	go run repro/cmd/benchjson -bench Ablation  # only the ablation suites
//	go run repro/cmd/benchjson -compare BENCH_2026-07-30.json -tolerance 0.25
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other reported unit (probes/op, accesses/op, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the file schema.
type Baseline struct {
	Date      string `json:"date"`
	Go        string `json:"go"`
	Goos      string `json:"goos,omitempty"`
	Goarch    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	Pkg       string `json:"pkg,omitempty"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	Short     bool   `json:"short"`
	// Gomaxprocs records the run's GOMAXPROCS — the suffix testing appends
	// to benchmark names — so comparisons can strip it exactly instead of
	// guessing whether a trailing -<digits> is part of the name.
	Gomaxprocs int      `json:"gomaxprocs,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", ".", "benchmark regexp passed to -bench")
	benchtime := flag.String("benchtime", "1x", "value passed to -benchtime")
	short := flag.Bool("short", true, "run with -short (skips the heaviest ablation legs)")
	pkg := flag.String("pkg", "repro", "package pattern holding the benchmarks")
	out := flag.String("out", "", "output path (default BENCH_<date>.json; compare mode writes only when set explicitly)")
	comparePath := flag.String("compare", "", "baseline JSON to compare the run against; exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression for B/op, allocs/op and custom metrics not gated exactly (compare mode)")
	timeTolerance := flag.Float64("time-tolerance", 1.0, "allowed fractional regression for ns/op, qps and custom -ns metrics (compare mode; loose because -benchtime=1x timing is noisy)")
	flag.Parse()

	date := time.Now().Format("2006-01-02")
	path := *out
	if path == "" && *comparePath == "" {
		path = "BENCH_" + date + ".json"
	}

	// Load the baseline up front: a typo'd path, truncated file, or corrupt
	// JSON should fail in milliseconds, not after the multi-minute benchmark
	// run.
	var base *Baseline
	if *comparePath != "" {
		var err error
		if base, err = loadBaseline(*comparePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	procs := benchProcs(base)
	args := testArgs(*bench, *benchtime, *short, *pkg, procs)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	os.Stdout.Write(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	b := parseRun(string(raw))
	var unstable []string
	b.Results, unstable = mergeSamples(b.Results)
	for _, u := range unstable {
		fmt.Fprintf(os.Stderr, "benchjson: UNSTABLE: %s\n", u)
	}
	if len(unstable) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d deterministic counters differ across the %d samples of one run\n", len(unstable), samples)
		os.Exit(1)
	}
	b.Date = date
	b.Bench = *bench
	b.Benchtime = *benchtime
	b.Short = *short
	b.Pkg = *pkg
	b.Gomaxprocs = procs
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		b.Go = strings.TrimSpace(string(v))
	}
	if len(b.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}

	if path != "" {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(b.Results), path)
	}

	if base != nil {
		rep := compareBaselines(base, &b, *tolerance, *timeTolerance)
		for _, m := range rep.Missing {
			fmt.Fprintf(os.Stderr, "benchjson: note: baseline benchmark %s not in this run\n", m)
		}
		for _, n := range rep.New {
			fmt.Fprintf(os.Stderr, "benchjson: WARNING: %s is not in the baseline and is not gated; regenerate the baseline to cover it\n", n)
		}
		fmt.Fprintf(os.Stderr, "benchjson: compared %d benchmarks against %s\n", rep.Compared, *comparePath)
		if len(rep.Regressions) > 0 {
			for _, r := range rep.Regressions {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchjson: no regressions past tolerance")
	}
}

// benchProcs is the GOMAXPROCS the suite runs at: the baseline's recorded
// value in compare mode, so legs whose allocations follow the core count
// (parallel synthesis workers) compare like with like on any runner, and
// the process's own otherwise. A legacy baseline without Gomaxprocs runs at
// the process's value.
func benchProcs(base *Baseline) int {
	if base != nil && base.Gomaxprocs > 0 {
		return base.Gomaxprocs
	}
	return runtime.GOMAXPROCS(0)
}

// testArgs is the go test command line of one suite run at GOMAXPROCS
// procs (-cpu, which also fixes the name suffix testing appends).
func testArgs(bench, benchtime string, short bool, pkg string, procs int) []string {
	args := []string{"test", "-run=NONE", "-bench=" + bench, "-benchtime=" + benchtime,
		"-count=" + strconv.Itoa(samples), "-cpu=" + strconv.Itoa(procs)}
	if short {
		args = append(args, "-short")
	}
	return append(args, pkg)
}

// loadBaseline reads and validates a committed baseline. Every failure mode a
// damaged checkout can produce — missing file, truncated or otherwise invalid
// JSON, a JSON document of the wrong shape, a well-formed file holding no
// results, a result row with no name — gets a distinct, path-prefixed message,
// because the caller exits nonzero on any of them and the message is all the
// CI log will show.
func loadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%s: baseline file is empty", path)
	}
	base := &Baseline{}
	if err := json.Unmarshal(data, base); err != nil {
		var syn *json.SyntaxError
		if errors.As(err, &syn) && syn.Offset >= int64(len(data))-1 {
			return nil, fmt.Errorf("%s: baseline JSON is truncated (%v); regenerate it with benchjson", path, err)
		}
		return nil, fmt.Errorf("%s: baseline is not valid JSON: %v", path, err)
	}
	if len(base.Results) == 0 {
		return nil, fmt.Errorf("%s: baseline holds no results (wrong file, or a run that produced none?)", path)
	}
	for i, r := range base.Results {
		if r.Name == "" {
			return nil, fmt.Errorf("%s: baseline result %d has no name; regenerate it with benchjson", path, i)
		}
	}
	return base, nil
}

// parseRun extracts the platform header and benchmark lines of one `go test
// -bench` run.
func parseRun(raw string) Baseline {
	var b Baseline
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			b.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			b.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			b.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				b.Results = append(b.Results, r)
			}
		}
	}
	return b
}

// parseLine parses one testing output line:
//
//	BenchmarkName-8   1   123 ns/op   456 accesses/op   789 B/op   2 allocs/op
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: n}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// samples is how many times every leg runs (go test -count): one
// -benchtime=1x timing on a shared runner is too noisy to gate, so a leg
// is recorded and gated by its best sample.
const samples = 3

// mergeSamples folds the repeated lines of each benchmark into one result,
// in first-seen order: the lowest ns/op, B/op, allocs/op and custom metric
// of its samples, except qps, where higher is better. Each exactUnits
// counter must read the same in every sample; every one that does not is
// reported in unstable.
func mergeSamples(rs []Result) (merged []Result, unstable []string) {
	idx := make(map[string]int)
	reported := make(map[string]bool)
	for _, r := range rs {
		i, seen := idx[r.Name]
		if !seen {
			idx[r.Name] = len(merged)
			r.Metrics = maps.Clone(r.Metrics)
			merged = append(merged, r)
			continue
		}
		m := &merged[i]
		m.NsPerOp = min(m.NsPerOp, r.NsPerOp)
		m.BytesPerOp = min(m.BytesPerOp, r.BytesPerOp)
		m.AllocsPerOp = min(m.AllocsPerOp, r.AllocsPerOp)
		for unit := range exactUnits {
			got, gok := r.Metrics[unit]
			want, wok := m.Metrics[unit]
			if (got != want || gok != wok) && !reported[r.Name+" "+unit] {
				reported[r.Name+" "+unit] = true
				unstable = append(unstable, fmt.Sprintf("%s %s: %.10g in one sample, %.10g in another", r.Name, unit, want, got))
			}
		}
		for unit, v := range r.Metrics {
			old, ok := m.Metrics[unit]
			switch {
			case exactUnits[unit]:
			case !ok:
				if m.Metrics == nil {
					m.Metrics = make(map[string]float64)
				}
				m.Metrics[unit] = v
			case unit == "qps":
				m.Metrics[unit] = max(old, v)
			default:
				m.Metrics[unit] = min(old, v)
			}
		}
	}
	return merged, unstable
}

// stripProc removes the exact "-<procs>" suffix testing appends to benchmark
// names when GOMAXPROCS is procs (testing omits the suffix entirely at
// GOMAXPROCS=1), leaving names that merely end in digits alone.
func stripProc(name string, procs int) string {
	if procs > 1 {
		if suf := "-" + strconv.Itoa(procs); strings.HasSuffix(name, suf) {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

// normalizeName strips a trailing -<digits> from a benchmark name. It is the
// legacy fallback for baselines recorded before Gomaxprocs was stored: it
// cannot tell a proc suffix from a name that happens to end in digits
// ("BenchmarkTable2/LRU-4" on one core carries no suffix at all), so legacy
// matching tries exact names first and normalized forms only as a fallback.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// exactUnits are the custom metrics held to exact equality. Each counts
// work a deterministic run does — learner queries, symbols, test words and
// rounds, oracle probes, accesses and memo hits, learned states, synthesis
// candidates — and each was checked identical across repeated suite runs
// at GOMAXPROCS 1 and 2. Any change, up or down, means the run itself
// changed and the baseline must be regenerated with it.
var exactUnits = map[string]bool{
	"queries/op":    true,
	"symbols/op":    true,
	"testwords/op":  true,
	"rounds/op":     true,
	"probes/op":     true,
	"accesses/op":   true,
	"memohits/op":   true,
	"states":        true,
	"candidates/op": true,
}

// compareReport is the outcome of one baseline comparison.
type compareReport struct {
	Compared    int      // benchmarks present in both runs
	Regressions []string // human-readable regression descriptions
	Missing     []string // baseline benchmarks absent from the current run
	New         []string // current-run benchmarks absent from the baseline
}

// compareBaselines checks every benchmark of the current run against the
// baseline. An exactUnits counter regresses when it differs from the
// baseline at all. Any other value regresses when it exceeds
// baseline*(1+tol) — timeTol for ns/op, tol for B/op, allocs/op and the
// remaining custom metrics. The "qps" unit is throughput, where higher is
// better and the value is as wall-clock-noisy as ns/op, so it is gated
// inverted at the time tolerance: a run regresses when qps falls below
// baseline/(1+timeTol). A counter the baseline has but the current run no
// longer reports is also a failure: a silently vanished probes/op is
// exactly the kind of broken stats plumbing the gate exists to catch.
// Toleranced zero-valued baseline entries are skipped: there is no
// meaningful ratio against zero.
func compareBaselines(base, cur *Baseline, tol, timeTol float64) compareReport {
	var rep compareReport
	// With Gomaxprocs recorded on both sides the proc suffix is stripped
	// exactly and names pair one to one. Legacy baselines (no Gomaxprocs)
	// fall back to heuristic matching: exact names first — so a trailing
	// "-4" that is part of the benchmark's own name still pairs correctly —
	// then the normalized forms for cross-core-count runs.
	precise := base.Gomaxprocs > 0 && cur.Gomaxprocs > 0
	baseKey := func(name string) string {
		if precise {
			return stripProc(name, base.Gomaxprocs)
		}
		return name
	}
	exact := make(map[string]int, len(base.Results))
	norm := make(map[string]int, len(base.Results))
	for i, r := range base.Results {
		exact[baseKey(r.Name)] = i
		if n := normalizeName(r.Name); !precise && n != r.Name {
			if _, dup := norm[n]; !dup {
				norm[n] = i
			}
		}
	}
	lookup := func(name string) (int, bool) {
		if precise {
			i, ok := exact[stripProc(name, cur.Gomaxprocs)]
			return i, ok
		}
		for _, k := range []string{name, normalizeName(name)} {
			if i, ok := exact[k]; ok {
				return i, true
			}
			if i, ok := norm[k]; ok {
				return i, true
			}
		}
		return 0, false
	}
	matched := make([]bool, len(base.Results))
	for _, r := range cur.Results {
		bi, ok := lookup(r.Name)
		if !ok {
			// New benchmark: ungated until it lands in a regenerated
			// baseline. Report it — a leg the baseline never covers would
			// otherwise pass silently forever.
			rep.New = append(rep.New, r.Name)
			continue
		}
		b := base.Results[bi]
		matched[bi] = true
		rep.Compared++
		name := normalizeName(r.Name)
		check := func(metric string, got, want, allowed float64) {
			if want <= 0 || got <= want*(1+allowed) {
				return
			}
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s %s: %.6g vs baseline %.6g (+%.1f%%, tolerance %.0f%%)",
					name, metric, got, want, 100*(got/want-1), 100*allowed))
		}
		checkRate := func(metric string, got, want, allowed float64) {
			if want <= 0 || got >= want/(1+allowed) {
				return
			}
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s %s: %.6g vs baseline %.6g (%.1f%%, tolerance -%.0f%%)",
					name, metric, got, want, 100*(got/want-1), 100*(1-1/(1+allowed))))
		}
		checkExact := func(metric string, got, want float64) {
			if got == want {
				return
			}
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s %s: %.10g vs baseline %.10g (deterministic counter, must match exactly)",
					name, metric, got, want))
		}
		check("ns/op", r.NsPerOp, b.NsPerOp, timeTol)
		check("B/op", r.BytesPerOp, b.BytesPerOp, tol)
		check("allocs/op", r.AllocsPerOp, b.AllocsPerOp, tol)
		for unit, want := range b.Metrics {
			got, ok := r.Metrics[unit]
			if !ok && want > 0 {
				rep.Regressions = append(rep.Regressions,
					fmt.Sprintf("%s %s: metric vanished (baseline %.6g)", name, unit, want))
				continue
			}
			switch {
			case unit == "qps":
				checkRate(unit, got, want, timeTol)
			case strings.HasSuffix(unit, "-ns"):
				check(unit, got, want, timeTol)
			case exactUnits[unit]:
				checkExact(unit, got, want)
			default:
				check(unit, got, want, tol)
			}
		}
	}
	for i, r := range base.Results {
		if !matched[i] {
			rep.Missing = append(rep.Missing, baseKey(r.Name))
		}
	}
	return rep
}
