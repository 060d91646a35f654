// Command perfbench is the repository benchmark. It runs one seeded workload
// through the public entry points a user calls, verifies every output, and
// prints the workload's metrics as the last line of standard output:
//
//	python3 perfbench/run.py --workload sim-learn --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, which times the calls
// into each layer from this package's own code. README.md lists the
// workloads, the metrics and which layer moves which end-to-end number.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed   int64
	budget time.Duration // how long the timed passes may run
	trace  bool
	tiny   bool // smallest inputs, for the package tests
}

type workloadFunc func(ctx context.Context, cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"sim-learn": simLearn,
	"hw-learn":  hwLearn,
	"serve":     serve,
	"explain":   explain,
}

// deadline bounds a whole run, set-up included, below the 180 s a run may
// take.
const deadline = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sim-learn, hw-learn, serve or explain")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {sim-learn|hw-learn|serve|explain} --seed N --seconds N --trace {0|1}\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	fmt.Println(hostLine(*name, cfg.seed))
	res, notes, err := execute(context.Background(), *name, cfg)
	for _, n := range notes {
		fmt.Println(n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, d := range catalogue(cfg.trace) {
		fmt.Printf("metric %-30s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func catalogue(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// execute runs one workload under the run deadline and assembles its
// result. An error means the workload could not run at all; a failed
// verification is reported through result.Correct.
func execute(ctx context.Context, name string, cfg config) (result, []string, error) {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	rep, err := workloads[name](ctx, cfg)
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	if cfg.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{rep.layer[d.name], d.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":     medianSeconds(rep.setup),
			"work_s":      medianSeconds(rep.work),
			"peak_rss_mb": quantile(slices.Clone(rep.rss), 0.5), // the samples print in pass order
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	notes := append(rep.notes, fmt.Sprintf("samples: %d untraced passes, setup %v, work %v, peak rss MB %.1f", len(rep.work), rep.setup, rep.work, rep.rss))
	if cfg.trace && runtime.GOMAXPROCS(0) > 1 {
		notes = append(notes, fmt.Sprintf("counters: polca.* vary from run to run on the default engine at GOMAXPROCS=%d, read them with their spread; learn.* repeat exactly at a fixed GOMAXPROCS", runtime.GOMAXPROCS(0)))
	}
	return res, notes, nil
}

// passes calls fn until the budget is spent: always once, then again only
// while the time left covers the slowest pass so far, so a run ends near
// its budget instead of a whole pass past it. Each pass starts settled and
// records its own resident-set peak in r.
func passes(ctx context.Context, budget time.Duration, r *report, fn func(i int) error) error {
	start := time.Now()
	var slowest time.Duration
	for i := 0; ; i++ {
		settle()
		r.passPeak = 0
		t := time.Now()
		if err := fn(i); err != nil {
			return err
		}
		if d := time.Since(t); d > slowest {
			slowest = d
		}
		r.rss = append(r.rss, max(r.passPeak, peakRSSMB()))
		if time.Since(start)+slowest > budget {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// settle collects the previous pass's garbage, returns the freed memory to
// the OS and resets the resident-set high-water mark, so every pass starts
// from the same heap, as a fresh process would, and peakRSSMB afterwards
// reads that pass's own peak. A kernel that refuses the reset leaves the
// mark cumulative.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// resettle settles in the middle of a pass, so the next task starts from
// the same heap whatever ran before it, and keeps the peak so far as the
// pass's.
func (r *report) resettle() {
	r.passPeak = max(r.passPeak, peakRSSMB())
	settle()
}

// timed returns fn's wall time.
func timed(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// goCounters reads the runtime's cumulative allocation and GC-cycle
// counters; the traced passes report their deltas.
func goCounters() (allocBytes, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last settle.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostLine records where a result was measured: core counts, CPU model, Go
// version, the commit (when built from a git checkout) and a digest of the
// Go sources, which identifies the code when there is no commit.
func hostLine(workload string, seed int64) string {
	commit := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: workload=%s seed=%d nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit, sourceDigest())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory (the repository root), skipping hidden directories such as the
// build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
