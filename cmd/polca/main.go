// Command polca learns a cache replacement policy as a Mealy machine,
// either from a software-simulated cache (§6) or from a simulated silicon
// CPU through CacheQuery (§7), and optionally synthesizes a human-readable
// explanation (§5).
//
// Examples:
//
//	polca -policy MRU -assoc 6                 # learn from a simulator
//	polca -policy SRRIP-HP -assoc 4 -explain   # ... and explain it
//	polca -hw skylake -level L2 -set 0         # learn from simulated silicon
//	polca -hw skylake -level L3 -cat 4         # with CAT-reduced L3
//	polca -policy LRU -assoc 4 -dot lru.dot    # export the automaton
//
//	# Save the oracle's query store, then warm-start a re-learn from it
//	# (bit-identical machine, backend probed only for new words):
//	polca -policy New1 -assoc 4 -snapshot new1.qs
//	polca -policy New1 -assoc 4 -warm new1.qs
//
//	# Crash-resume: checkpoint the store during the run; after a crash or
//	# kill, the same command replays from the latest checkpoint:
//	polca -policy New1 -assoc 4 -resume new1.ck
//
//	# Fault injection: learn under a seeded fault plan (soak testing):
//	polca -policy New1 -assoc 4 -faults "seed=42,err=0.05,flip=0.001"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/blocks"
	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faulty"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
	"repro/internal/remote"
	"repro/internal/synth"
)

func main() {
	polName := flag.String("policy", "", "policy to learn from a software-simulated cache")
	assoc := flag.Int("assoc", 4, "associativity (simulator mode)")
	hwName := flag.String("hw", "", "CPU model to learn from: haswell, skylake, kabylake, toy")
	levelName := flag.String("level", "L1", "cache level (hardware mode)")
	slice := flag.Int("slice", 0, "cache slice (hardware mode)")
	set := flag.Int("set", 0, "cache set (hardware mode)")
	cat := flag.Int("cat", 0, "CAT ways for the L3 (hardware mode)")
	seed := flag.Int64("seed", 1, "simulator seed (hardware mode) and random-walk conformance seed")
	replicas := flag.Int("replicas", 0, "CPU replicas for the concurrent query engine (hardware mode; 0 = all cores, 1 = serial)")
	algoName := flag.String("algo", "lstar", "learning algorithm: lstar (observation table) or tree (discrimination tree)")
	suiteName := flag.String("suite", "wp", "conformance suite: wp, w, or rw (seeded random walk)")
	walkSteps := flag.Int("walk-steps", 0, "total symbols per random-walk conformance round (rw suite; 0 = default)")
	depth := flag.Int("depth", 1, "conformance test suite depth k")
	maxStates := flag.Int("max-states", 100000, "abort when the hypothesis exceeds this many states")
	reset := flag.String("reset", "", `reset sequence, e.g. "F+R" or "D C B A @" (hardware mode)`)
	explain := flag.Bool("explain", false, "synthesize a rule-based explanation of the result")
	dotPath := flag.String("dot", "", "write the learned automaton in DOT format to this file")
	jsonPath := flag.String("json", "", "write the learned automaton as JSON to this file")
	warm := flag.String("warm", "", "warm start: load an oracle query-store snapshot from this file before learning")
	snapshot := flag.String("snapshot", "", "save the oracle query-store snapshot to this file after learning")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); Ctrl-C cancels cleanly either way")
	faults := flag.String("faults", "", `deterministic fault-injection plan, e.g. "seed=42,err=0.05,flip=0.001,stall=0.01:5ms,die=1@500"`)
	workers := flag.String("workers", "", "comma-separated polcaworker addresses (host:port,...): learn through a distributed worker fleet — bit-identical machine, probes fan out remotely (simulator mode)")
	resume := flag.String("resume", "", "crash-resume file: checkpoint the oracle's query store here during the run and warm-start from it when present (missing or damaged file = cold start)")
	ckEvery := flag.Int("checkpoint-every", 0, "auto-snapshot the query store every N output queries (0 = off; defaults to 256 with -resume); requires -snapshot or -resume")
	flag.Parse()
	snap := core.SnapshotOptions{WarmPath: *warm, SavePath: *snapshot, CheckpointEvery: *ckEvery}
	if *resume != "" {
		if *warm != "" || *snapshot != "" {
			fatal(fmt.Errorf("-resume replaces -warm/-snapshot; use one or the other"))
		}
		snap.WarmPath = *resume
		snap.SavePath = *resume
		snap.ColdOnDamage = true
		if snap.CheckpointEvery == 0 {
			snap.CheckpointEvery = 256
		}
	}
	var sim core.SimOptions
	if *faults != "" {
		plan, err := faulty.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		sim.Faults = &plan
	}
	if *workers != "" {
		if *hwName != "" {
			fatal(fmt.Errorf("-workers drives a simulator fleet; it cannot combine with -hw"))
		}
		sim.FleetWorkers = remote.SplitAddrs(*workers)
		sim.FleetLogf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "polca: "+format+"\n", args...)
		}
	}

	// A canceled context unwinds the learner at the next query boundary,
	// leaving stores consistent — so a timed-out or interrupted run with
	// -resume keeps its latest checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	algo, err := learn.ParseAlgo(*algoName)
	if err != nil {
		fatal(err)
	}
	suite, err := learn.ParseSuite(*suiteName)
	if err != nil {
		fatal(err)
	}
	lopt := learn.Options{
		Algo:            algo,
		Depth:           *depth,
		Suite:           suite,
		MaxStates:       *maxStates,
		RandomWalkSteps: *walkSteps,
		RandomWalkSeed:  *seed,
	}

	var machine *mealy.Machine
	switch {
	case *polName != "" && *hwName != "":
		fatal(fmt.Errorf("choose either -policy (simulator) or -hw (hardware)"))
	case *polName != "":
		machine, err = learnSim(ctx, core.SimRequest{Policy: *polName, Assoc: *assoc, Learn: lopt, Snapshot: snap, Sim: sim})
	case *hwName != "":
		machine, err = learnHW(ctx, *hwName, *levelName, *slice, *set, *cat, *seed, lopt, *replicas, *reset, snap, sim)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("learned a policy with %d control states\n", machine.NumStates)
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(machine.DOT("policy")), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("automaton written to %s\n", *dotPath)
	}
	if *jsonPath != "" {
		fh, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := machine.Save(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("automaton written to %s\n", *jsonPath)
	}
	if *explain {
		res, err := synth.Synthesize(machine, synth.Options{Seed: 1})
		if err != nil {
			fatal(fmt.Errorf("synthesis failed: %w", err))
		}
		fmt.Printf("\nexplanation (%s template, %d candidates, %v):\n%s",
			res.Template, res.Candidates, res.Duration.Round(1e6), res.Program)
	}
}

func learnSim(ctx context.Context, req core.SimRequest) (*mealy.Machine, error) {
	res, err := core.LearnSimulated(ctx, req)
	if err != nil {
		return nil, err
	}
	fmt.Printf("simulator: %s assoc %d (%s learner), %d output queries, %v\n",
		res.Policy, req.Assoc, req.Learn.Algo, res.LearnStats.OutputQueries, res.LearnStats.Duration.Round(1e6))
	// The oracle-side cost line is what warm-start tooling (the nightly
	// snapshot job) parses: probes drop to ~0 on a warm re-learn.
	fmt.Printf("oracle: %d probes, %d accesses, %d memo hits\n",
		res.OracleStats.Probes, res.OracleStats.Accesses, res.OracleStats.MemoHits)
	if res.OracleStats.Retries > 0 || res.OracleStats.Disagreements > 0 || res.OracleStats.Reprobes > 0 {
		fmt.Printf("resilience: %d probe retries, %d vote disagreements, %d consistency re-probes\n",
			res.OracleStats.Retries, res.OracleStats.Disagreements, res.OracleStats.Reprobes)
	}
	if fs := res.Fleet; fs != nil {
		fmt.Printf("fleet: %d workers\n", len(fs.Workers))
		for _, w := range fs.Workers {
			fmt.Printf("fleet: %s: %d probes over %d requests (%d failures)\n",
				w.Addr, w.Probes, w.Requests, w.Failures)
		}
		if fs.Hedges > 0 || fs.Retries > 0 || fs.Quarantined > 0 {
			fmt.Printf("resilience: %d hedged re-dispatches, %d request retries, %d workers quarantined, %d readmitted\n",
				fs.Hedges, fs.Retries, fs.Quarantined, fs.Readmitted)
		}
	}
	// Verify against the installed ground truth, which we know in
	// simulator mode.
	pol := policy.MustNew(req.Policy, req.Assoc)
	truth, err := mealy.FromPolicy(pol, 0)
	if err == nil {
		if eq, _ := res.Machine.Equivalent(truth); eq {
			fmt.Println("verified: trace-equivalent to the installed policy")
		} else {
			fmt.Println("WARNING: learned machine differs from the installed policy")
		}
	}
	return res.Machine, nil
}

func learnHW(ctx context.Context, cpuName, levelName string, slice, set, cat int, seed int64, lopt learn.Options, replicas int, reset string, snap core.SnapshotOptions, sim core.SimOptions) (*mealy.Machine, error) {
	cfg, err := experiments.CPUModel(cpuName)
	if err != nil {
		return nil, err
	}
	level, err := hw.ParseLevel(levelName)
	if err != nil {
		return nil, err
	}
	mkCPU := func() *hw.CPU { return hw.NewCPU(cfg, seed) }
	req := core.HardwareRequest{
		CPU:              mkCPU(),
		NewCPU:           mkCPU,
		Replicas:         replicas,
		Target:           cachequery.Target{Level: level, Slice: slice, Set: set},
		Backend:          cachequery.DefaultBackendOptions(),
		CATWays:          cat,
		Learn:            lopt,
		DeterminismEvery: 128,
		Snapshot:         snap,
		Faults:           sim.Faults,
	}
	if reset != "" && reset != "F+R" {
		seq := strings.Fields(reset)
		for _, b := range seq {
			if !blocks.IsValid(b) && b != "@" {
				return nil, fmt.Errorf("invalid reset block %q", b)
			}
		}
		req.Resets = []cachequery.Reset{parseReset(seq, cfg.Config(level).Assoc, cat)}
	}
	res, err := core.LearnHardware(ctx, req)
	if err != nil {
		return nil, err
	}
	fmt.Printf("hardware: %s %s %s, reset %q, %d output queries, %d MBL queries executed\n",
		cfg.Name, level, req.Target, res.Reset.Name(), res.LearnStats.OutputQueries, res.Frontend.Executed)
	return res.Machine, nil
}

// parseReset expands a user reset specification; '@' stands for the
// associativity-many fill.
func parseReset(fields []string, assoc, cat int) cachequery.Reset {
	if cat > 0 {
		assoc = cat
	}
	var seq []blocks.Block
	for _, f := range fields {
		if f == "@" {
			seq = append(seq, blocks.Ordered(assoc)...)
		} else {
			seq = append(seq, f)
		}
	}
	return cachequery.Reset{FlushFirst: false, Sequence: seq}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polca:", err)
	os.Exit(1)
}
