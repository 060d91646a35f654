package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

// ToyCPU is the 2-way toy processor of Figure 1: a single-level view onto a
// small L1 whose sets hold two lines under an LRU-like policy.
func ToyCPU() hw.CPUConfig {
	return hw.CPUConfig{
		Name:       "toy (Figure 1)",
		Arch:       "Toy",
		L1:         hw.LevelConfig{Assoc: 2, Slices: 1, SetsPerSlice: 16, Policy: "LRU", HitLatency: 4, LatencySigma: 0.5},
		L2:         hw.LevelConfig{Assoc: 4, Slices: 1, SetsPerSlice: 64, Policy: "LRU", HitLatency: 12, LatencySigma: 1},
		L3:         hw.LevelConfig{Assoc: 8, Slices: 2, SetsPerSlice: 256, Policy: "LRU", HitLatency: 40, LatencySigma: 3},
		MemLatency: 190, MemSigma: 15,
	}
}

// CPUModel returns the simulated CPU named by name, case-insensitively:
// haswell, skylake, kabylake (or kaby-lake, kbl) or toy.
func CPUModel(name string) (hw.CPUConfig, error) {
	switch strings.ToLower(name) {
	case "haswell":
		return hw.Haswell(), nil
	case "skylake":
		return hw.Skylake(), nil
	case "kabylake", "kaby-lake", "kbl":
		return hw.KabyLake(), nil
	case "toy":
		return ToyCPU(), nil
	}
	return hw.CPUConfig{}, fmt.Errorf("unknown CPU model %q", name)
}

// RunFigure1 reproduces the end-to-end toy pipeline of Figure 1 and returns
// a textual report showing all three abstraction layers: raw CacheQuery
// latencies (1c), Polca's block-level translation (1b), and the learned
// 2-state automaton (1a).
func RunFigure1(ctx context.Context) (string, error) {
	var sb strings.Builder
	cpu := hw.NewCPU(ToyCPU(), 7)
	f := cachequery.NewFrontend(cpu, cachequery.DefaultBackendOptions())
	tgt := cachequery.Target{Level: hw.L1, Set: 3}

	// Layer 1c: CacheQuery turns latencies into hits and misses.
	sb.WriteString("── CacheQuery (Figure 1c): blocks -> addresses -> latencies -> hits/misses ──\n")
	for _, src := range []string{"A B C A?", "A B C B?"} {
		results, err := f.Query(ctx, tgt, src)
		if err != nil {
			return "", err
		}
		for _, r := range results {
			fmt.Fprintf(&sb, "  %-12s => %s\n", r.Query, r.Pattern())
		}
	}
	be, _ := f.Backend(tgt)
	fmt.Fprintf(&sb, "  (hit/miss threshold calibrated at %.1f cycles)\n\n", be.Threshold())

	// Layer 1b: Polca translates policy inputs into block sequences.
	sb.WriteString("── Polca (Figure 1b): policy inputs -> block sequences ──\n")
	prober, err := cachequery.NewProber(f, tgt, cachequery.FlushRefill(2))
	if err != nil {
		return "", err
	}
	oracle := polcaOracle(prober)
	word := []int{2, 0, 2} // Evct Ln(0) Evct
	outs, err := oracle.OutputQuery(ctx, word)
	if err != nil {
		return "", err
	}
	for i, in := range word {
		fmt.Fprintf(&sb, "  %-6s => %s\n", policy.InputString(2, in), policy.OutputString(outs[i]))
	}
	sb.WriteString("\n")

	// Layer 1a: the learner assembles the automaton.
	sb.WriteString("── LearnLib-style learner (Figure 1a): the learned policy ──\n")
	res, err := learn.Learn(ctx, oracle, learn.Options{Depth: 1})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  learned %d control states from %d output queries\n",
		res.Machine.NumStates, res.Stats.OutputQueries)
	truth, err := mealy.FromPolicy(policy.MustNew("LRU", 2), 0)
	if err != nil {
		return "", err
	}
	if eq, _ := res.Machine.Equivalent(truth); eq {
		sb.WriteString("  the automaton is trace-equivalent to LRU (Example 2.2)\n\n")
	} else {
		sb.WriteString("  WARNING: the automaton differs from LRU\n\n")
	}
	sb.WriteString(res.Machine.DOT("figure1"))

	// Bonus: the §5 explanation of the learned toy policy.
	if expl, err := core.Explain(res.Machine, synthOptions()); err == nil {
		sb.WriteString("\n── Synthesized explanation (§5) ──\n")
		sb.WriteString(expl.Program.String())
	}
	return sb.String(), nil
}
