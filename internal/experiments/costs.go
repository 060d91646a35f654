package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/polca"
)

// CostsResult captures the §7.2 cost measurements: the overhead of learning
// through the hardware interface (with a warm query cache, isolating the
// pipeline cost from the measurement cost), and the per-level execution
// time of a single MBL query.
type CostsResult struct {
	Policy       string
	Assoc        int
	SimTime      time.Duration // learning from the software-simulated cache
	ColdTime     time.Duration // learning through CacheQuery, cold cache
	WarmTime     time.Duration // relearning with every query cached
	WarmOverhead float64       // WarmTime / SimTime — the paper's 1500x analog
	MBLQueries   int           // queries issued while learning from hardware
	PerQueryCost map[string]time.Duration
	PerQueryReps int
}

// RunCosts reproduces the two measurements of §7.2 on the Skylake model:
// (1) learning PLRU-8 (the Skylake L1 policy) from a simulator vs. through
// a fully warmed CacheQuery interface, and (2) the average execution time
// of the query `@ M _?` per cache level.
func RunCosts(ctx context.Context, queryReps int) (*CostsResult, error) {
	const assoc = 8 // the Skylake L1: PLRU with 8 ways, as in the paper
	res := &CostsResult{Policy: "PLRU", Assoc: assoc, PerQueryReps: queryReps,
		PerQueryCost: make(map[string]time.Duration)}

	// (1a) Software-simulated cache.
	start := time.Now()
	if _, err := core.LearnSimulated(ctx, core.SimRequest{Policy: "PLRU", Assoc: assoc, Learn: learn.Options{Depth: 1}}); err != nil {
		return nil, err
	}
	res.SimTime = time.Since(start)

	// (1b) Through CacheQuery on the Skylake L1 (PLRU). A first run fills
	// the query cache; a second run answers every MBL query from it,
	// isolating the pipeline overhead as the paper's LevelDB experiment
	// does.
	cpu := hw.NewCPU(hw.Skylake(), 21)
	f := cachequery.NewFrontend(cpu, cachequery.DefaultBackendOptions())
	tgt := cachequery.Target{Level: hw.L1, Set: 0}
	learnOnce := func() (time.Duration, int, error) {
		prober, err := cachequery.NewProber(f, tgt, cachequery.FlushRefill(assoc))
		if err != nil {
			return 0, 0, err
		}
		oracle := polca.NewOracle(prober)
		t0 := time.Now()
		if _, err := learn.Learn(ctx, oracle, learn.Options{Depth: 1}); err != nil {
			return 0, 0, err
		}
		return time.Since(t0), f.Stats().Executed, nil
	}
	cold, queries, err := learnOnce()
	if err != nil {
		return nil, err
	}
	res.ColdTime = cold
	res.MBLQueries = queries
	warm, _, err := learnOnce()
	if err != nil {
		return nil, err
	}
	res.WarmTime = warm
	if res.SimTime > 0 {
		res.WarmOverhead = float64(res.WarmTime) / float64(res.SimTime)
	}

	// (2) Per-level cost of the single query `@ M _?`, averaged over
	// queryReps executions with the result cache disabled.
	for _, lvl := range []hw.Level{hw.L1, hw.L2, hw.L3} {
		cpu := hw.NewCPU(hw.Skylake(), 22)
		f := cachequery.NewFrontend(cpu, cachequery.DefaultBackendOptions())
		f.SetResultCache(false)
		tgt := cachequery.Target{Level: lvl, Set: 0}
		// Provision outside the timed region, like the paper's persistent
		// kernel module.
		if _, err := f.Backend(tgt); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < queryReps; i++ {
			if _, err := f.Query(ctx, tgt, "@ M _?"); err != nil {
				return nil, err
			}
		}
		res.PerQueryCost[lvl.String()] = time.Since(t0) / time.Duration(queryReps)
	}
	return res, nil
}

// CostsTable renders the measurements.
func CostsTable(r *CostsResult) *Table {
	t := &Table{
		Title:  "§7.2: cost of learning from hardware",
		Header: []string{"Measurement", "Value"},
	}
	t.Append(fmt.Sprintf("Learn %s-%d from software simulator", r.Policy, r.Assoc), fmtDuration(r.SimTime))
	t.Append("Learn via CacheQuery (cold query cache)", fmtDuration(r.ColdTime))
	t.Append("Learn via CacheQuery (warm query cache)", fmtDuration(r.WarmTime))
	t.Append("Interface overhead (warm / simulator)", fmt.Sprintf("%.0fx", r.WarmOverhead))
	t.Append("MBL queries issued", fmt.Sprint(r.MBLQueries))
	for _, lvl := range []string{"L1", "L2", "L3"} {
		t.Append(fmt.Sprintf("Query `@ M _?` on %s (avg of %d)", lvl, r.PerQueryReps),
			fmtDuration(r.PerQueryCost[lvl]))
	}
	return t
}
