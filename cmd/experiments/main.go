// Command experiments regenerates the tables and figures of the CacheQuery
// paper's evaluation against the simulated CPUs.
//
// Usage:
//
//	experiments fig1
//	experiments table2 [-full]
//	experiments table3
//	experiments table4 [-full]
//	experiments table5 [-programs]
//	experiments costs [-assoc N] [-reps N]
//	experiments appendixb [-reps N]
//	experiments all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cachequery"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/learn"
)

func main() {
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); Ctrl-C cancels cleanly either way")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var err error
	switch cmd {
	case "fig1":
		err = runFig1(ctx)
	case "table2":
		err = runTable2(ctx, args)
	case "table3":
		experiments.Table3Table().Render(os.Stdout)
	case "table4":
		err = runTable4(ctx, args)
	case "table5":
		err = runTable5(args)
	case "costs":
		err = runCosts(ctx, args)
	case "appendixb":
		err = runAppendixB(ctx, args)
	case "baselines":
		err = runBaselines(ctx)
	case "all":
		err = runAll(ctx)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments [-timeout d] <fig1|table2|table3|table4|table5|costs|appendixb|baselines|all> [flags]`)
}

func runFig1(ctx context.Context) error {
	report, err := experiments.RunFigure1(ctx)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func runTable2(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	full := fs.Bool("full", false, "include the large instances (hours of runtime)")
	concurrency := fs.Int("concurrency", 1, "learn up to this many rows concurrently (1 keeps per-row times comparable to the paper)")
	algoName := fs.String("algo", "lstar", "learning algorithm: lstar (observation table) or tree (discrimination tree)")
	suiteName := fs.String("suite", "wp", "conformance suite: wp, w, or rw (seeded random walk)")
	seed := fs.Int64("seed", 1, "random-walk conformance seed (rw suite); fixed seeds make runs reproducible")
	walkSteps := fs.Int("walk-steps", 0, "total symbols per random-walk conformance round (rw suite; 0 = default)")
	snapshotDir := fs.String("snapshot-dir", "", "per-row oracle snapshot directory: existing snapshots warm-start rows, fresh stores are saved back")
	fs.Parse(args)
	opt, err := learnOptions(*algoName, *suiteName, *seed, *walkSteps)
	if err != nil {
		return err
	}
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			return err
		}
	}
	spec := experiments.Table2Default()
	if *full {
		spec = experiments.Table2Full()
	}
	cfg := experiments.Table2Config{Learn: opt, SnapshotDir: *snapshotDir}
	rows := experiments.RunTable2(ctx, spec, *concurrency, cfg)
	experiments.Table2Table(rows).Render(os.Stdout)
	return nil
}

// learnOptions assembles learner options from the shared flag values.
func learnOptions(algoName, suiteName string, seed int64, walkSteps int) (learn.Options, error) {
	algo, err := learn.ParseAlgo(algoName)
	if err != nil {
		return learn.Options{}, err
	}
	suite, err := learn.ParseSuite(suiteName)
	if err != nil {
		return learn.Options{}, err
	}
	return learn.Options{Algo: algo, Suite: suite, Depth: 1,
		RandomWalkSeed: seed, RandomWalkSteps: walkSteps}, nil
}

func runTable4(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("table4", flag.ExitOnError)
	full := fs.Bool("full", false, "learn every CPU and level (slow)")
	replicas := fs.Int("replicas", 1, "CPU replicas for the concurrent query engine per job (0 = all cores; 1 keeps per-row times comparable to the paper)")
	algoName := fs.String("algo", "lstar", "learning algorithm: lstar (observation table) or tree (discrimination tree)")
	suiteName := fs.String("suite", "wp", "conformance suite: wp, w, or rw (seeded random walk)")
	seed := fs.Int64("seed", 1, "random-walk conformance seed (rw suite); fixed seeds make runs reproducible")
	walkSteps := fs.Int("walk-steps", 0, "total symbols per random-walk conformance round (rw suite; 0 = default)")
	fs.Parse(args)
	opt, err := learnOptions(*algoName, *suiteName, *seed, *walkSteps)
	if err != nil {
		return err
	}
	var rows []experiments.Table4Row
	for _, job := range experiments.Table4Jobs(!*full) {
		job.Replicas = *replicas
		job.Learn = opt
		fmt.Fprintf(os.Stderr, "learning %s %s %s ...\n", job.Model.Name, job.Level, job.Target)
		rows = append(rows, experiments.RunTable4Job(ctx, job, cachequery.DefaultBackendOptions()))
	}
	experiments.Table4Table(rows).Render(os.Stdout)
	return nil
}

func runTable5(args []string) error {
	fs := flag.NewFlagSet("table5", flag.ExitOnError)
	programs := fs.Bool("programs", false, "print the synthesized programs")
	fs.Parse(args)
	rows := experiments.RunTable5()
	experiments.Table5Table(rows).Render(os.Stdout)
	if *programs {
		for _, r := range rows {
			if r.Program != nil {
				fmt.Printf("\n%s (%s template):\n%s", r.Policy, r.Template, r.Program)
			}
		}
	}
	return nil
}

func runCosts(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("costs", flag.ExitOnError)
	reps := fs.Int("reps", 100, "repetitions of the per-level query measurement")
	fs.Parse(args)
	res, err := experiments.RunCosts(ctx, *reps)
	if err != nil {
		return err
	}
	experiments.CostsTable(res).Render(os.Stdout)
	return nil
}

func runBaselines(ctx context.Context) error {
	rows, err := experiments.RunBaselines(ctx, 4)
	if err != nil {
		return err
	}
	experiments.BaselinesTable(rows).Render(os.Stdout)
	return nil
}

func runAppendixB(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("appendixb", flag.ExitOnError)
	reps := fs.Int("reps", 5, "thrashing repetitions per set")
	fs.Parse(args)
	model := hw.Skylake()
	res, err := experiments.RunLeaderScan(ctx, model, experiments.DefaultLeaderSample(model), *reps)
	if err != nil {
		return err
	}
	experiments.LeaderScanTable(res).Render(os.Stdout)
	fmt.Printf("\ncorrectly classified: %d/%d sets; Skylake XOR formula holds: %v; PSEL high/low: %d/%d\n",
		res.Correct, len(res.SampledSets), res.FormulaHolds, res.PSELHigh, res.PSELLow)
	return nil
}

func runAll(ctx context.Context) error {
	if err := runFig1(ctx); err != nil {
		return err
	}
	fmt.Println()
	if err := runTable2(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	experiments.Table3Table().Render(os.Stdout)
	fmt.Println()
	if err := runTable4(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runTable5(nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runCosts(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	if err := runAppendixB(ctx, nil); err != nil {
		return err
	}
	fmt.Println()
	return runBaselines(ctx)
}
