// Package fingerprint implements the nanoBench-style replacement-policy
// identification the paper discusses as concurrent work ([3,4], §10):
// instead of learning an automaton, it runs random access sequences against
// the cache under test and compares the observed hit/miss traces with a
// pool of software-simulated policies, eliminating every candidate that
// disagrees.
//
// Compared with the learning pipeline the approach is fast and simple, but
// it gives no correctness guarantee (an unmodeled policy can accidentally
// agree on all sampled traces), and it can only ever identify policies that
// are already in the pool — exactly the trade-off the paper describes. The
// reproduction uses it to cross-validate the learning results.
package fingerprint

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/polca"
	"repro/internal/policy"
)

// Options tune the fingerprinting campaign.
type Options struct {
	// Trials is the number of random sequences (default 64).
	Trials int
	// Length is the length of each sequence (default 4*assoc).
	Length int
	// Universe is the number of distinct blocks drawn from (default
	// assoc+2, enough to force evictions without churning uselessly).
	Universe int
	// Seed drives the sequence generator.
	Seed int64
}

func (o *Options) defaults(assoc int) {
	if o.Trials <= 0 {
		o.Trials = 64
	}
	if o.Length <= 0 {
		o.Length = 4 * assoc
	}
	if o.Universe <= 0 {
		o.Universe = assoc + 2
	}
}

// Result is the outcome of an identification campaign.
type Result struct {
	// Matches lists the pool policies consistent with every observed
	// trace, in pool order.
	Matches []string
	// Traces is the number of sequences executed.
	Traces int
	// Eliminated maps each rejected policy to the 1-based trial that
	// eliminated it.
	Eliminated map[string]int
}

// Identify runs random sequences against the cache behind pr and eliminates
// pool policies whose simulated traces disagree. The pool entries are
// policy registry names; entries that cannot be instantiated at the
// prober's associativity are skipped.
//
// The prober's reset must park the cache in the pool policies' initial
// state up to block naming — the standard Flush+Refill contract. For
// policies with other reset behaviour the caller should compare against
// machines instead (see internal/experiments' identifyPolicy).
func Identify(ctx context.Context, pr polca.Prober, pool []string, opt Options) (*Result, error) {
	assoc := pr.Assoc()
	opt.defaults(assoc)
	rng := rand.New(rand.NewSource(opt.Seed))

	type candidate struct {
		name string
		set  *cache.Set
	}
	var cands []candidate
	for _, name := range pool {
		pol, err := policy.New(name, assoc)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{name: pol.Name(), set: cache.NewSet(pol)})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("fingerprint: empty candidate pool at associativity %d", assoc)
	}

	res := &Result{Eliminated: make(map[string]int)}
	universe := blocks.Ordered(opt.Universe)
	alive := cands
	for trial := 1; trial <= opt.Trials && len(alive) > 1; trial++ {
		res.Traces++
		seq := make([]blocks.Block, opt.Length)
		for i := range seq {
			seq[i] = universe[rng.Intn(len(universe))]
		}
		observed, err := pr.ProbeTrace(ctx, seq, len(seq))
		if err != nil {
			return nil, err
		}
		var next []candidate
		for _, c := range alive {
			c.set.Reset()
			agreed := true
			for i, b := range seq {
				oc, _ := c.set.Access(b)
				if oc != observed[i] {
					agreed = false
					break
				}
			}
			if agreed {
				next = append(next, c)
			} else {
				res.Eliminated[c.name] = trial
			}
		}
		alive = next
	}
	for _, c := range alive {
		res.Matches = append(res.Matches, c.name)
	}
	return res, nil
}

// DefaultPool returns the full policy zoo as the candidate pool.
func DefaultPool() []string { return policy.Names() }
