package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
)

type policySpec struct {
	name  string
	assoc int
}

func (p policySpec) String() string { return fmt.Sprintf("%s-%d", p.name, p.assoc) }

// simPool are the Table 2 rows sim-learn learns: each takes a few seconds
// or less.
var simPool = []policySpec{{"New1", 4}, {"New2", 4}, {"SRRIP-HP", 4}, {"MRU", 8}}

// simSet is the sim-learn policies for a seed: the whole pool, in a seeded
// order. The seed draws only the order because a run's spread is judged
// across seeds: drawing a subset made the learn time and resident-set peak
// of a run depend on which rows the seed picked.
func simSet(seed int64, tiny bool) []policySpec {
	if tiny {
		return []policySpec{{"LRU", 4}}
	}
	set := slices.Clone(simPool)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// simSetupBuilds is how many builds of the set one set-up sample averages:
// one build takes a few milliseconds, too short to time alone.
const simSetupBuilds = 10

// simLearnOptions are cmd/polca's defaults: L*, Wp suite, depth 1.
var simLearnOptions = learn.Options{Depth: 1}

// simLearn is the sim-learn workload: closed-loop L* learns of simulated
// policies through core.NewSimOracle with default SimOptions, each machine
// checked against the extracted ground truth. setup is building the set's
// oracles (policy compiles), per build, sampled before every learn so the
// samples span the run; work is the summed learn.Learn wall time of the
// set.
func simLearn(ctx context.Context, cfg config) (*report, error) {
	set := simSet(cfg.seed, cfg.tiny)
	builds := simSetupBuilds
	if cfg.tiny {
		builds = 1
	}
	truth := make([]*mealy.Machine, len(set))
	for i, p := range set {
		m, err := mealy.FromPolicy(policy.MustNew(p.name, p.assoc), 0)
		if err != nil {
			return nil, err
		}
		truth[i] = m
	}
	r := newReport()
	r.note("sim-learn: policies %v", set)
	sums := newLayerSums()
	err := passes(ctx, cfg.budget, r, func(int) error {
		var work time.Duration
		for i, p := range set {
			var setup time.Duration
			for b := 0; b < builds; b++ {
				for _, q := range set {
					_, d, err := newSimOracle(q)
					if err != nil {
						return err
					}
					setup += d
				}
			}
			r.setup = append(r.setup, setup/time.Duration(builds))
			// Each learn starts settled, and no earlier learn's oracle
			// and store stay live, so a learn's peak does not depend on
			// the order.
			r.resettle()
			oracle, _, err := newSimOracle(p)
			if err != nil {
				return err
			}
			var res *learn.Result
			d, err := timed(func() (err error) {
				res, err = learn.Learn(ctx, oracle, simLearnOptions)
				return err
			})
			if err != nil {
				return fmt.Errorf("learn %v: %w", p, err)
			}
			work += d
			eq, _ := res.Machine.Equivalent(truth[i])
			r.check(eq, "sim-learn %v: learned machine differs from the policy", p)
			if cfg.trace {
				if err := simTraced(ctx, p, res, r, sums); err != nil {
					return err
				}
			}
		}
		r.work = append(r.work, work)
		if cfg.trace {
			sums.passes++
			sums.untraced += work.Seconds()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		sums.finish(r)
	}
	return r, nil
}

// simTraced learns p again through the traced teacher and checks that the
// trace changed nothing: the same machine and the same learner counters as
// the untraced learn.
func simTraced(ctx context.Context, p policySpec, untraced *learn.Result, r *report, sums *layerSums) error {
	oracle, d, err := newSimOracle(p)
	if err != nil {
		return err
	}
	sums.addDur("policy.compile_s", d)
	tt := &tracedTeacher{inner: oracle}
	var res *learn.Result
	wall, err := sums.span(func() (err error) {
		res, err = learn.Learn(ctx, tt, simLearnOptions)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced learn %v: %w", p, err)
	}
	r.check(sameLearn(untraced, res), "sim-learn %v: traced learn differs from untraced (stats %+v vs %+v)", p, res.Stats, untraced.Stats)
	sums.addLearn(wall, res.Stats, tt)
	sums.addPolca(oracle.Stats())
	return nil
}

// newSimOracle builds p's oracle the way cmd/polca does and times it; the
// time is dominated by the policy compile.
func newSimOracle(p policySpec) (*polca.Oracle, time.Duration, error) {
	var oracle *polca.Oracle
	d, err := timed(func() (err error) {
		oracle, _, _, err = core.NewSimOracle(p.name, p.assoc, core.SimOptions{})
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("oracle %v: %w", p, err)
	}
	return oracle, d, nil
}
