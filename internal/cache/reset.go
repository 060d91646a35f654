package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/blocks"
	"repro/internal/policy"
)

// This file implements the reset-sequence ("bootstrapping") machinery of
// §7.1: learning a policy requires a sequence of memory accesses that drives
// a cache set into one fixed, known state from any state it might be in.
// Flush+Refill works on many sets, but for example the Skylake L2 needs the
// dedicated sequence D C B A @.
//
// A candidate sequence is verified against every reachable control state of
// the policy: it is a reset iff all runs converge to a single cache state
// whose content consists only of blocks from the sequence itself. When a
// flush instruction is available the runs start from invalid content;
// otherwise the pre-reset content is modeled by placeholder "dirty" blocks,
// which is sound by the data-independence of replacement policies (§1).

// ResetResult describes a verified reset sequence.
type ResetResult struct {
	// Sequence is the block access sequence (applied after a flush when
	// FlushFirst is set).
	Sequence []blocks.Block
	// FlushFirst records whether the sequence must be preceded by a full
	// flush of the set.
	FlushFirst bool
	// Content is the unique cache content after the reset, indexed by line.
	Content []blocks.Block
	// StateKey is the unique policy control state after the reset.
	StateKey string
}

// Name renders the reset sequence in the notation of Table 4, e.g. "F+R"
// for flush+refill or "D C B A @".
func (r ResetResult) Name() string {
	fill := blocks.Join(r.Sequence)
	if r.FlushFirst {
		if fill == blocks.Join(blocks.Ordered(len(r.Content))) {
			return "F+R"
		}
		return "Flush + " + fill
	}
	return fill
}

// dirtyBlock returns placeholder names for pre-reset cache content. The
// names are outside the universe produced by blocks.Name, so they can never
// collide with reset-sequence blocks.
func dirtyBlock(i int) blocks.Block { return fmt.Sprintf("#dirty%d", i) }

// reachableStates enumerates every reachable control state of pol as
// independent policy clones. maxStates guards against state-space blowups.
func reachableStates(pol policy.Policy, maxStates int) ([]policy.Policy, error) {
	n := pol.Assoc()
	numIn := policy.NumInputs(n)
	root := pol.Clone()
	root.Reset()
	seen := map[string]bool{root.StateKey(): true}
	list := []policy.Policy{root}
	for head := 0; head < len(list); head++ {
		for a := 0; a < numIn; a++ {
			succ := list[head].Clone()
			policy.Apply(succ, a)
			if !seen[succ.StateKey()] {
				if maxStates > 0 && len(list) >= maxStates {
					return nil, fmt.Errorf("cache: more than %d reachable control states", maxStates)
				}
				seen[succ.StateKey()] = true
				list = append(list, succ)
			}
		}
	}
	return list, nil
}

// VerifyReset checks whether seq (optionally after a flush) drives a set
// governed by pol into a unique state from every reachable control state.
// On success it returns the unique post-reset state.
func VerifyReset(pol policy.Policy, seq []blocks.Block, flushFirst bool, maxStates int) (*ResetResult, error) {
	states, err := reachableStates(pol, maxStates)
	if err != nil {
		return nil, err
	}
	n := pol.Assoc()
	var final *Set
	for _, cs := range states {
		s := &Set{n: n, content: make([]blocks.Block, n), pol: cs.Clone()}
		s.bind() // compiled policies keep the kernel fast path here too
		if !flushFirst {
			for i := range s.content {
				s.content[i] = dirtyBlock(i)
			}
		}
		for _, b := range seq {
			s.Access(b)
		}
		for _, c := range s.content {
			if c == "" || (len(c) > 0 && c[0] == '#') {
				return nil, fmt.Errorf("cache: sequence leaves stale or invalid content %q", c)
			}
		}
		if final == nil {
			final = s
		} else if final.StateKey() != s.StateKey() {
			return nil, fmt.Errorf("cache: sequence does not converge: %s vs %s", final.StateKey(), s.StateKey())
		}
	}
	return &ResetResult{
		Sequence:   append([]blocks.Block(nil), seq...),
		FlushFirst: flushFirst,
		Content:    final.Content(),
		StateKey:   final.Policy().StateKey(),
	}, nil
}

// FindResetSequence searches for a reset sequence for pol. It first tries
// the idioms observed in the paper (Flush+Refill, a double fill, and the
// reversed-fill prefix D C B A @), then falls back to a seeded random search
// over sequences of bounded length. maxStates bounds the policy state space
// explored during verification.
func FindResetSequence(pol policy.Policy, maxStates int) (*ResetResult, error) {
	n := pol.Assoc()
	fill := blocks.Ordered(n)
	reversed := make([]blocks.Block, n)
	for i, b := range fill {
		reversed[n-1-i] = b
	}

	type candidate struct {
		seq        []blocks.Block
		flushFirst bool
	}
	cands := []candidate{
		{fill, true}, // F+R
		{append(append([]blocks.Block{}, fill...), fill...), true},      // Flush + @ @
		{append(append([]blocks.Block{}, fill...), fill...), false},     // @ @ without flush
		{append(append([]blocks.Block{}, reversed...), fill...), true},  // Flush + D C B A @
		{append(append([]blocks.Block{}, reversed...), fill...), false}, // D C B A @
	}
	for _, c := range cands {
		if r, err := VerifyReset(pol, c.seq, c.flushFirst, maxStates); err == nil {
			return r, nil
		}
	}

	// Randomized fallback: repeated accesses within the first n blocks
	// followed by a fill, mirroring how the paper's authors searched by
	// hand. The RNG is fixed for reproducibility.
	rng := rand.New(rand.NewSource(0xCACE))
	for attempt := 0; attempt < 2000; attempt++ {
		l := 1 + rng.Intn(3*n)
		seq := make([]blocks.Block, 0, l+n)
		for i := 0; i < l; i++ {
			seq = append(seq, fill[rng.Intn(n)])
		}
		seq = append(seq, fill...)
		flushFirst := attempt%2 == 0
		if r, err := VerifyReset(pol, seq, flushFirst, maxStates); err == nil {
			return r, nil
		}
	}
	return nil, fmt.Errorf("cache: no reset sequence found for %s (assoc %d)", pol.Name(), n)
}
