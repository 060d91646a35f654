package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// Table2Spec selects which policy/associativity pairs to learn from
// software-simulated caches.
type Table2Spec struct {
	Policy string
	Assocs []int
}

// Table2Default is the subset of Table 2 that completes in minutes on a
// laptop-class machine. Paper state counts for reference: FIFO n, LRU/LIP
// n!, PLRU 2^(n-1), MRU 2^n-2, SRRIP-HP 12/178/2762, SRRIP-FP 16/256/4096.
func Table2Default() []Table2Spec {
	return []Table2Spec{
		{"FIFO", []int{2, 4, 8, 16}},
		{"LRU", []int{2, 4}},
		{"PLRU", []int{2, 4, 8}},
		{"MRU", []int{2, 4, 6, 8}},
		{"LIP", []int{2, 4}},
		{"SRRIP-HP", []int{2, 4}},
		{"SRRIP-FP", []int{2, 4}},
		{"New1", []int{2, 4}},
		{"New2", []int{2, 4}},
	}
}

// Table2Full extends the default spec with the large instances of Table 2.
// The biggest (PLRU 16, MRU 12, SRRIP-FP 6) took the paper's setup hours to
// days; expect the same order of magnitude here.
func Table2Full() []Table2Spec {
	return []Table2Spec{
		{"FIFO", []int{2, 4, 8, 16}},
		{"LRU", []int{2, 4, 6}},
		{"PLRU", []int{2, 4, 8, 16}},
		{"MRU", []int{2, 4, 6, 8, 10, 12}},
		{"LIP", []int{2, 4, 6}},
		{"SRRIP-HP", []int{2, 4, 6}},
		{"SRRIP-FP", []int{2, 4, 6}},
		{"New1", []int{2, 4, 6}},
		{"New2", []int{2, 4, 6}},
	}
}

// Table2Row is one learned configuration.
type Table2Row struct {
	Policy   string
	Assoc    int
	States   int
	Time     time.Duration
	Learn    learn.Stats // the learner's trajectory counters
	Verified bool
	Err      string
}

// RunTable2Row learns one policy from a software-simulated cache with the
// paper's settings (L*, Wp-method, k = 1) and verifies the result against
// the extracted ground truth.
func RunTable2Row(ctx context.Context, name string, assoc int) Table2Row {
	return RunTable2RowOpt(ctx, name, assoc, learn.Options{Depth: 1})
}

// RunTable2RowOpt is RunTable2Row with explicit learner options — the
// algorithm (-algo), conformance suite and random-walk seed flow through
// from cmd/experiments here.
func RunTable2RowOpt(ctx context.Context, name string, assoc int, opt learn.Options) Table2Row {
	return RunTable2RowSnap(ctx, name, assoc, opt, "")
}

// RunTable2RowSnap is RunTable2RowOpt with oracle query-store persistence:
// when snapshotDir is non-empty, an existing per-row snapshot warm-starts
// the oracle (the row replays recorded answers and simulates only new
// words) and the store is saved back after the run (core.SnapshotInDir
// naming). Learned machines and learner trajectories are identical cold
// or warm.
func RunTable2RowSnap(ctx context.Context, name string, assoc int, opt learn.Options, snapshotDir string) Table2Row {
	return RunTable2RowSim(ctx, name, assoc, opt, snapshotDir, core.SimOptions{})
}

// RunTable2RowSim is RunTable2RowSnap with an explicit simulator
// configuration: cmd/experiments' -compiled=false flows through here to run
// the row on the interpreted Policy interface instead of the compiled
// kernel (same machines and trajectories, different wall-clock).
func RunTable2RowSim(ctx context.Context, name string, assoc int, opt learn.Options, snapshotDir string, sim core.SimOptions) Table2Row {
	if opt.Depth == 0 {
		opt.Depth = 1
	}
	snap := core.SnapshotInDir(snapshotDir, name, assoc)
	row := Table2Row{Policy: name, Assoc: assoc}
	start := time.Now()
	res, err := core.LearnSimulatedSim(ctx, name, assoc, opt, snap, sim)
	row.Time = time.Since(start)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.States = res.Machine.NumStates
	row.Learn = res.LearnStats
	pol, err := policy.New(name, assoc)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	truth, err := mealy.FromPolicy(pol, 0)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	eq, _ := res.Machine.Equivalent(truth)
	row.Verified = eq
	if !eq {
		row.Err = "learned machine differs from ground truth"
	}
	return row
}

// RunTable2 learns every configuration of the spec, one after the other —
// the faithful setting for per-row timing comparisons against the paper.
func RunTable2(ctx context.Context, specs []Table2Spec) []Table2Row {
	return RunTable2Concurrent(ctx, specs, 1)
}

// RunTable2Concurrent learns the spec's configurations on up to `workers`
// parallel goroutines with the paper's learner settings.
func RunTable2Concurrent(ctx context.Context, specs []Table2Spec, workers int) []Table2Row {
	return RunTable2ConcurrentOpt(ctx, specs, workers, learn.Options{Depth: 1})
}

// RunTable2ConcurrentOpt learns the spec's configurations on up to `workers`
// parallel goroutines (rows are independent learning runs, each against its
// own simulated cache) with explicit learner options. Row order matches
// RunTable2; per-row times include scheduling contention, so use workers = 1
// when timing against the paper.
func RunTable2ConcurrentOpt(ctx context.Context, specs []Table2Spec, workers int, opt learn.Options) []Table2Row {
	return RunTable2ConcurrentSnap(ctx, specs, workers, opt, "")
}

// RunTable2ConcurrentSnap is RunTable2ConcurrentOpt with per-row oracle
// snapshot persistence in snapshotDir (empty disables; see
// RunTable2RowSnap). Rows are independent systems, so each gets its own
// snapshot file.
func RunTable2ConcurrentSnap(ctx context.Context, specs []Table2Spec, workers int, opt learn.Options, snapshotDir string) []Table2Row {
	return RunTable2ConcurrentSim(ctx, specs, workers, opt, snapshotDir, core.SimOptions{})
}

// RunTable2ConcurrentSim is RunTable2ConcurrentSnap with an explicit
// simulator configuration threaded to every row.
func RunTable2ConcurrentSim(ctx context.Context, specs []Table2Spec, workers int, opt learn.Options, snapshotDir string, sim core.SimOptions) []Table2Row {
	type job struct {
		policy string
		assoc  int
	}
	var jobs []job
	for _, spec := range specs {
		for _, assoc := range spec.Assocs {
			if _, err := policy.New(spec.Policy, assoc); err != nil {
				// Associativity constraints (e.g. PLRU at non-powers of
				// two) are skipped silently, like the paper's dashes.
				continue
			}
			jobs = append(jobs, job{spec.Policy, assoc})
		}
	}
	rows := make([]Table2Row, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			rows[i] = RunTable2RowSim(ctx, j.policy, j.assoc, opt, snapshotDir, sim)
		}
		return rows
	}
	next := make(chan int)
	var wg sync.WaitGroup
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i] = RunTable2RowSim(ctx, jobs[i].policy, jobs[i].assoc, opt, snapshotDir, sim)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return rows
}

// Table2Table renders rows in the layout of Table 2.
func Table2Table(rows []Table2Row) *Table {
	t := &Table{
		Title:  "Table 2: learning policies from software-simulated caches",
		Header: []string{"Policy", "Assoc.", "# States", "Time", "Queries", "Verified"},
	}
	for _, r := range rows {
		verified := "yes"
		if !r.Verified {
			verified = "NO: " + r.Err
		}
		t.Append(r.Policy, fmt.Sprint(r.Assoc), fmt.Sprint(r.States),
			fmtDuration(r.Time), fmt.Sprint(r.Learn.OutputQueries), verified)
	}
	return t
}
