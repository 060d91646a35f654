package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/polca"
	"repro/internal/policy"
)

// hwReplicas pins the CPU-replica pool, so the learner's batch width and
// with it the learner counters do not follow the host's core count.
const hwReplicas = 2

// hwTarget is the hw-learn input: Table 4's L1 PLRU on the simulated
// Skylake, configured as BenchmarkTable4 does, with the seed as CPU seed.
type hwTarget struct {
	cpu    hw.CPUConfig
	seed   int64
	tgt    cachequery.Target
	pol    policy.Policy
	resets []cachequery.Reset
}

func newHWTarget(seed int64, tiny bool) hwTarget {
	cfg := hw.Skylake()
	if tiny {
		cfg = experiments.ToyCPU()
	}
	lc := cfg.Config(hw.L1)
	pol := policy.MustNew(lc.Policy, lc.Assoc)
	return hwTarget{
		cpu:    cfg,
		seed:   seed,
		tgt:    cachequery.Target{Level: hw.L1, Set: 0},
		pol:    pol,
		resets: core.ResetCandidatesFor(pol),
	}
}

var (
	hwLearnOptions     = learn.Options{Depth: 1, MaxStates: 4096}
	hwBackend          = cachequery.DefaultBackendOptions()
	hwDeterminismEvery = 128
)

func (t hwTarget) newCPU() *hw.CPU { return hw.NewCPU(t.cpu, t.seed) }

// hwLearn is the hw-learn workload: closed-loop core.LearnHardware runs,
// each machine checked against core.GroundTruthAfterReset. setup is the
// CPU build plus everything LearnHardware does before learn.Learn starts
// (policy compiles, provisioning, calibration, replicas, reset discovery)
// in a fresh process; work is the learn.Learn wall time inside
// LearnHardware.
func hwLearn(ctx context.Context, cfg config) (*report, error) {
	t := newHWTarget(cfg.seed, cfg.tiny)
	r := newReport()
	r.note("hw-learn: %s L1 %s-%d, cpu seed %d, %d replicas", t.cpu.Name, t.pol.Name(), t.pol.Assoc(), t.seed, hwReplicas)
	sums := newLayerSums()
	err := passes(ctx, cfg.budget, r, func(pass int) error {
		var traced *learn.Result
		var tracedReset string
		if cfg.trace {
			// The traced learn goes first, so its per-layer set-up times
			// include the process-wide policy compiles of the simulated
			// CPU, as the untraced setup_s does.
			var err error
			if traced, tracedReset, err = hwTraced(ctx, t, sums); err != nil {
				return err
			}
		}
		start := time.Now()
		res, err := core.LearnHardware(ctx, core.HardwareRequest{
			CPU:              t.newCPU(),
			NewCPU:           t.newCPU,
			Target:           t.tgt,
			Backend:          hwBackend,
			Resets:           t.resets,
			Learn:            hwLearnOptions,
			DeterminismEvery: hwDeterminismEvery,
			Replicas:         hwReplicas,
		})
		total := time.Since(start)
		if err != nil {
			return fmt.Errorf("LearnHardware: %w", err)
		}
		if pass == 0 {
			// Only the first set-up of a process is cold: the simulated
			// CPU's compiled policies are cached process-wide after it.
			r.setup = append(r.setup, total-res.LearnStats.Duration)
		}
		r.work = append(r.work, res.LearnStats.Duration)
		r.note("hw-learn: pass %d: %d backend executions, %d result-cache hits, %d inconclusive, %d probes",
			pass, res.Frontend.Executed, res.Frontend.CacheHits, res.Frontend.Inconclusive, res.OracleStats.Probes)
		truth, err := core.GroundTruthAfterReset(t.pol, res.Reset)
		if err != nil {
			return err
		}
		eq, _ := res.Machine.Equivalent(truth)
		r.check(eq, "hw-learn: learned machine differs from the installed policy")
		if cfg.trace {
			r.check(tracedReset == res.Reset.Name() && sameLearn(&learn.Result{Machine: res.Machine, Stats: res.LearnStats}, traced),
				"hw-learn: traced learn differs from untraced (reset %s vs %s, stats %+v vs %+v)", tracedReset, res.Reset.Name(), traced.Stats, res.LearnStats)
			sums.passes++
			sums.untraced += res.LearnStats.Duration.Seconds()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		sums.finish(r)
		r.note("hw-learn: cachequery.backend_busy_s is summed over %d replicas", hwReplicas)
	}
	return r, nil
}

// hwTraced composes the public calls core.LearnHardware makes, timing each
// layer: CPU build and backend provisioning with calibration (primary and
// replicas), reset-content discovery, and the learn through the traced
// teacher. It returns the learn and the reset it succeeded with; the caller
// checks both against the untraced LearnHardware run.
func hwTraced(ctx context.Context, t hwTarget, sums *layerSums) (*learn.Result, string, error) {
	var (
		f      *cachequery.Frontend
		fronts []*cachequery.Frontend
	)
	d, err := timed(func() error {
		f = cachequery.NewFrontend(t.newCPU(), hwBackend)
		if _, err := f.Backend(t.tgt); err != nil {
			return err
		}
		var err error
		fronts, err = cachequery.NewReplicaFrontends(t.newCPU, hwBackend, t.tgt, hwReplicas)
		return err
	})
	if err != nil {
		return nil, "", fmt.Errorf("provision: %w", err)
	}
	sums.addDur("cachequery.provision_s", d)

	var lastErr error
	for _, rst := range t.resets {
		if len(rst.Content) == 0 {
			d, err := timed(func() (err error) {
				rst.Content, err = cachequery.DiscoverInitialContent(ctx, f, t.tgt, rst)
				return err
			})
			sums.addDur("cachequery.reset_discovery_s", d)
			if err != nil {
				lastErr = err
				continue
			}
		}
		pp, err := cachequery.NewParallelProber(fronts, t.tgt, rst)
		if err != nil {
			lastErr = err
			continue
		}
		oracle := polca.NewOracle(pp, polca.WithDeterminismChecks(hwDeterminismEvery), polca.WithParallelism(hwReplicas))
		tt := &tracedTeacher{inner: oracle}
		var res *learn.Result
		wall, err := sums.span(func() (err error) {
			res, err = learn.Learn(ctx, tt, hwLearnOptions)
			return err
		})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, "", err
			}
			lastErr = err
			continue
		}
		sums.addLearn(wall, res.Stats, tt)
		sums.addPolca(oracle.Stats())
		fs := pp.FrontendStats()
		fs.Add(f.Stats())
		sums.addDur("cachequery.backend_busy_s", fs.Duration)
		sums.addDur("cachequery.learn_s", wall)
		sums.add("cachequery.replicas", float64(pp.Replicas()))
		sums.add("cachequery.executed", float64(fs.Executed))
		sums.add("cachequery.cache_hits", float64(fs.CacheHits))
		sums.add("cachequery.inconclusive", float64(fs.Inconclusive))
		return res, rst.Name(), nil
	}
	return nil, "", fmt.Errorf("traced hw-learn: every reset candidate failed, last error: %w", lastErr)
}
