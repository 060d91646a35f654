package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// Table3Table renders the processor specifications (Table 3).
func Table3Table() *Table {
	t := &Table{
		Title:  "Table 3: processors' specifications",
		Header: []string{"CPU", "Cache level", "Assoc.", "Slices", "Sets per slice", "Policy (installed)"},
	}
	for _, m := range hw.Models() {
		for _, lvl := range []hw.Level{hw.L1, hw.L2, hw.L3} {
			cfg := m.Config(lvl)
			pol := cfg.Policy
			if lvl == hw.L3 && m.L3Adaptive {
				pol = fmt.Sprintf("adaptive (%s leaders / %s)", m.ThrashablePolicy, m.ResistantPolicy)
			}
			t.Append(m.Name, lvl.String(), fmt.Sprint(cfg.Assoc), fmt.Sprint(cfg.Slices),
				fmt.Sprint(cfg.SetsPerSlice), pol)
		}
	}
	return t
}

// Table4Job describes one hardware learning target.
type Table4Job struct {
	Model    hw.CPUConfig
	Level    hw.Level
	Target   cachequery.Target
	CATWays  int
	SetsNote string
	// Expected is the installed ground-truth policy, used to compute reset
	// candidates and to verify the learned machine. An empty value marks a
	// row the paper could not learn.
	Expected string
	// Seed fixes the CPU instance.
	Seed int64
	// Replicas sizes the concurrent membership-query engine's CPU-replica
	// pool: 0 uses every available core, 1 forces the serial pipeline.
	Replicas int
	// Learn configures the learner — algorithm (learn.AlgoTree for the
	// discrimination tree), conformance suite, random-walk seed/steps.
	// RunTable4Job fills in the paper's depth (k = 1) and the state budget
	// when left zero.
	Learn learn.Options
}

// Table4Row is one row of Table 4.
type Table4Row struct {
	CPU    string
	Level  string
	Assoc  int
	Sets   string
	States int
	Policy string
	Reset  string
	Time   time.Duration
	Err    string
}

// Table4Jobs enumerates the learning targets. quick restricts the list to
// one CPU (Skylake) plus the Haswell L3 failure case; the full list covers
// every CPU and level of Table 4.
func Table4Jobs(quick bool) []Table4Job {
	var jobs []Table4Job
	for _, m := range hw.Models() {
		sky := m.Arch == "Skylake"
		if quick && !sky && m.Arch != "Haswell" {
			continue
		}
		if !quick || sky {
			jobs = append(jobs,
				Table4Job{Model: m, Level: hw.L1, Target: cachequery.Target{Level: hw.L1, Set: 0},
					SetsNote: "0 - 63", Expected: m.L1.Policy, Seed: 11},
				Table4Job{Model: m, Level: hw.L2, Target: cachequery.Target{Level: hw.L2, Set: 0},
					SetsNote: fmt.Sprintf("0 - %d", m.L2.SetsPerSlice-1), Expected: m.L2.Policy, Seed: 12},
			)
		}
		switch {
		case m.SupportsCAT && (!quick || sky):
			// The thrash-susceptible leader sets (set 0 satisfies the
			// Appendix B formula) with associativity reduced to 4.
			jobs = append(jobs, Table4Job{
				Model: m, Level: hw.L3,
				Target:   cachequery.Target{Level: hw.L3, Slice: 0, Set: 0},
				CATWays:  4,
				SetsNote: "0 33 132 165 ... (leader sets)",
				Expected: m.ThrashablePolicy,
				Seed:     13,
			})
		case !m.SupportsCAT:
			// Haswell: no CAT, and the resistant leader group behaves
			// nondeterministically — the paper reports "-".
			jobs = append(jobs, Table4Job{
				Model: m, Level: hw.L3,
				Target:   cachequery.Target{Level: hw.L3, Slice: 0, Set: 768},
				SetsNote: "768 - 831 (slice 0)",
				Expected: "", // expected to fail
				Seed:     14,
			})
		}
	}
	return jobs
}

// table4LearnOptions applies the Table 4 defaults to a job's learner options.
func table4LearnOptions(opt learn.Options) learn.Options {
	if opt.Depth == 0 {
		opt.Depth = 1
	}
	if opt.MaxStates == 0 {
		opt.MaxStates = 4096
	}
	return opt
}

// RunTable4Job learns one target and identifies the resulting policy.
func RunTable4Job(ctx context.Context, job Table4Job, opt cachequery.BackendOptions) Table4Row {
	row := Table4Row{CPU: job.Model.Name, Level: job.Level.String(), Sets: job.SetsNote}
	mkCPU := func() *hw.CPU { return hw.NewCPU(job.Model, job.Seed) }
	cpu := mkCPU()
	assoc := job.Model.Config(job.Level).Assoc
	if job.CATWays > 0 {
		assoc = job.CATWays
	}
	row.Assoc = assoc

	req := core.HardwareRequest{
		CPU:              cpu,
		NewCPU:           mkCPU,
		Replicas:         job.Replicas,
		Target:           job.Target,
		Backend:          opt,
		CATWays:          job.CATWays,
		Learn:            table4LearnOptions(job.Learn),
		DeterminismEvery: 128,
	}
	if job.Expected != "" {
		pol, err := policy.New(job.Expected, assoc)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		req.Resets = core.ResetCandidatesFor(pol)
	} else {
		// Unknown policy: try the generic resets; learning is expected to
		// fail with nondeterminism on the Haswell L3.
		req.Learn.MaxStates = 512
		req.Resets = []cachequery.Reset{cachequery.FlushRefill(assoc)}
	}

	start := time.Now()
	res, err := core.LearnHardware(ctx, req)
	row.Time = time.Since(start)
	if err != nil {
		row.Err = err.Error()
		row.Policy = "-"
		row.Reset = "-"
		return row
	}
	row.States = res.Machine.NumStates
	row.Reset = res.Reset.Name()
	row.Policy = identifyPolicy(res.Machine, res.Reset, assoc)
	return row
}

// identifyPolicy names a learned machine by comparing it against the policy
// zoo, accounting for the line relabeling induced by the reset's block
// arrangement.
func identifyPolicy(m *mealy.Machine, rst cachequery.Reset, assoc int) string {
	for _, name := range policy.Names() {
		pol, err := policy.New(name, assoc)
		if err != nil {
			continue
		}
		vr, err := cache.VerifyReset(pol, rst.Sequence, rst.FlushFirst, 200000)
		if err != nil {
			continue // the reset does not even converge for this policy
		}
		truth, err := core.GroundTruthAfterReset(pol, cachequery.Reset{
			FlushFirst: rst.FlushFirst, Sequence: rst.Sequence, Content: vr.Content,
		})
		if err != nil {
			continue
		}
		perm, ok := contentPermutation(vr.Content, rst.Content)
		if !ok {
			continue
		}
		if eq, _ := m.Equivalent(truth.RelabelLines(perm)); eq {
			return pol.Name()
		}
	}
	return "Unknown"
}

// contentPermutation maps line indices of `from` onto the lines of `to`
// holding the same blocks.
func contentPermutation(from, to []blocks.Block) ([]int, bool) {
	if len(from) != len(to) {
		return nil, false
	}
	pos := make(map[blocks.Block]int, len(to))
	for i, b := range to {
		pos[b] = i
	}
	perm := make([]int, len(from))
	for i, b := range from {
		j, ok := pos[b]
		if !ok {
			return nil, false
		}
		perm[i] = j
	}
	return perm, true
}

// Table4Table renders rows in the layout of Table 4.
func Table4Table(rows []Table4Row) *Table {
	t := &Table{
		Title:  "Table 4: learning policies from (simulated) hardware caches",
		Header: []string{"CPU", "Level", "Assoc.", "Sets", "States", "Policy", "Reset Seq.", "Time"},
	}
	for _, r := range rows {
		states := fmt.Sprint(r.States)
		if r.Err != "" {
			states = "-"
		}
		t.Append(r.CPU, r.Level, fmt.Sprint(r.Assoc), r.Sets, states, r.Policy, r.Reset, fmtDuration(r.Time))
	}
	return t
}
