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

// Table2Config configures a Table 2 run. The zero value is the paper's
// setting: L*, Wp-method, k = 1, cold oracles, in-process simulators.
type Table2Config struct {
	// Learn configures the learner (algorithm, conformance suite,
	// random-walk seed); a zero Depth means the paper's k = 1.
	Learn learn.Options
	// SnapshotDir, when set, persists each row's oracle query store: an
	// existing per-row snapshot warm-starts the oracle (the row replays
	// recorded answers and simulates only new words) and the store is
	// saved back after the run (core.SnapshotInDir naming). Learned
	// machines and learner trajectories are identical cold or warm.
	SnapshotDir string
}

// RunTable2Row learns one policy from a software-simulated cache and
// verifies the result against the extracted ground truth. An unknown
// policy or invalid associativity yields a row carrying the error.
func RunTable2Row(ctx context.Context, name string, assoc int, cfg Table2Config) Table2Row {
	opt := cfg.Learn
	if opt.Depth == 0 {
		opt.Depth = 1
	}
	req := core.SimRequest{
		Policy:   name,
		Assoc:    assoc,
		Learn:    opt,
		Snapshot: core.SnapshotInDir(cfg.SnapshotDir, name, assoc),
	}
	row := Table2Row{Policy: name, Assoc: assoc}
	start := time.Now()
	res, err := core.LearnSimulated(ctx, req)
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

// RunTable2 learns every configuration of the spec on up to `workers`
// parallel goroutines (rows are independent learning runs, each against
// its own simulated cache). Invalid (policy, associativity) pairs, such as
// PLRU at a non-power of two, are skipped silently, like the paper's
// dashes. Row order follows the spec; per-row times include scheduling
// contention, so use workers = 1 when timing against the paper.
func RunTable2(ctx context.Context, specs []Table2Spec, workers int, cfg Table2Config) []Table2Row {
	type job struct {
		policy string
		assoc  int
	}
	var jobs []job
	for _, spec := range specs {
		for _, assoc := range spec.Assocs {
			if _, err := policy.New(spec.Policy, assoc); err != nil {
				continue
			}
			jobs = append(jobs, job{spec.Policy, assoc})
		}
	}
	rows := make([]Table2Row, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			rows[i] = RunTable2Row(ctx, j.policy, j.assoc, cfg)
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
				rows[i] = RunTable2Row(ctx, jobs[i].policy, jobs[i].assoc, cfg)
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
