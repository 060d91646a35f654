package cachequery

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/mbl"
	"repro/internal/polca"
)

// Reset describes how a probe drives the target set into its fixed initial
// state (§7.1): an optional pool flush followed by a block access sequence.
type Reset struct {
	// FlushFirst flushes every pool block before the sequence (the
	// "Flush" of Flush+Refill).
	FlushFirst bool
	// Sequence is the block access sequence, e.g. A B C D for '@' or
	// D C B A A B C D for the Skylake L2.
	Sequence []blocks.Block
	// Content is the assumed post-reset cache content by line. Polca's
	// line labels are defined relative to this arrangement; any fixed
	// bijection yields an isomorphic (relabeled) learned policy.
	Content []blocks.Block
}

// FlushRefill is the default reset: flush, then access the first
// associativity-many blocks in order.
func FlushRefill(assoc int) Reset {
	return Reset{FlushFirst: true, Sequence: blocks.Ordered(assoc), Content: blocks.Ordered(assoc)}
}

// Name renders the reset in the notation of Table 4.
func (r Reset) Name() string {
	res := cache.ResetResult{Sequence: r.Sequence, FlushFirst: r.FlushFirst, Content: r.Content}
	return res.Name()
}

// Prober adapts a CacheQuery target set to Polca's cache interface: every
// probe replays the reset and then the block sequence, profiling the last
// access. It deliberately implements only the plain polca.Prober interface
// — hardware offers no state snapshots, so the oracle uses the faithful
// reset-rooted probing path, and the oracle's probe memo, which answers
// every repeated probe before it reaches the prober, is what keeps the cost
// manageable. A frontend with its result cache on (LevelDB in the real
// tool) still answers repeats that bypass the oracle.
type Prober struct {
	f   *Frontend
	tgt Target
	rst Reset
	ops mbl.Query // probeOps buffer, reused: a prober is as serial as its frontend
}

// NewProber builds a Polca prober for one target set and reset.
func NewProber(f *Frontend, tgt Target, rst Reset) (*Prober, error) {
	be, err := f.Backend(tgt)
	if err != nil {
		return nil, err
	}
	if len(rst.Content) != be.Assoc() {
		return nil, fmt.Errorf("cachequery: reset content has %d lines, target associativity is %d",
			len(rst.Content), be.Assoc())
	}
	return &Prober{f: f, tgt: tgt, rst: rst}, nil
}

// Assoc implements polca.Prober.
func (p *Prober) Assoc() int {
	be, _ := p.f.Backend(p.tgt)
	return be.Assoc()
}

// InitialContent implements polca.Prober.
func (p *Prober) InitialContent() []blocks.Block {
	return append([]blocks.Block(nil), p.rst.Content...)
}

// probeOps renders reset ++ q with the last k accesses profiled, into a
// buffer that is valid until the next call.
func (p *Prober) probeOps(q []blocks.Block, k int) mbl.Query {
	ops := p.ops[:0]
	for _, b := range p.rst.Sequence {
		ops = append(ops, mbl.Op{Block: b})
	}
	for i, b := range q {
		op := mbl.Op{Block: b}
		if i >= len(q)-k {
			op.Tag = mbl.TagProfile
		}
		ops = append(ops, op)
	}
	p.ops = ops
	return ops
}

// Probe implements polca.Prober: reset ++ q with the final access profiled.
func (p *Prober) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if len(q) == 0 {
		return cache.Miss, fmt.Errorf("cachequery: empty probe")
	}
	ocs, err := p.f.RunQuery(ctx, p.tgt, p.probeOps(q, 1), p.rst.FlushFirst)
	if err != nil {
		return cache.Miss, err
	}
	return ocs[0], nil
}

// ProbeFresh implements polca.FreshProber: the probe is re-executed on the
// cache even when the result store already holds its answer, which is what
// lets the oracle's determinism audit observe real (mis)behaviour.
func (p *Prober) ProbeFresh(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	if len(q) == 0 {
		return cache.Miss, fmt.Errorf("cachequery: empty probe")
	}
	ocs, err := p.f.RunQueryFresh(ctx, p.tgt, p.probeOps(q, 1), p.rst.FlushFirst)
	if err != nil {
		return cache.Miss, err
	}
	return ocs[0], nil
}

// ProbeTrace implements polca.Prober: reset ++ q as one MBL query with its
// last k accesses profiled, returning their hit/miss outcomes.
func (p *Prober) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	if err := polca.CheckSuffix(q, k); err != nil {
		return nil, err
	}
	ocs, err := p.f.RunQuery(ctx, p.tgt, p.probeOps(q, k), p.rst.FlushFirst)
	if err != nil {
		return nil, err
	}
	return append([]cache.Outcome(nil), ocs...), nil
}

// DiscoverInitialContent probes which blocks of the reset sequence are
// resident after a reset, for use when the post-reset arrangement is not
// known from a model: the resident blocks are assigned to lines in
// universe order, fixing an arbitrary but consistent labeling.
func DiscoverInitialContent(ctx context.Context, f *Frontend, tgt Target, rst Reset) ([]blocks.Block, error) {
	be, err := f.Backend(tgt)
	if err != nil {
		return nil, err
	}
	probe := &Prober{f: f, tgt: tgt, rst: Reset{
		FlushFirst: rst.FlushFirst,
		Sequence:   rst.Sequence,
		Content:    make([]blocks.Block, be.Assoc()), // placeholder
	}}
	var resident []blocks.Block
	seen := make(map[blocks.Block]bool)
	for _, b := range rst.Sequence {
		if seen[b] {
			continue
		}
		seen[b] = true
		oc, err := probe.Probe(ctx, []blocks.Block{b})
		if err != nil {
			return nil, err
		}
		if oc == cache.Hit {
			resident = append(resident, b)
		}
	}
	sort.Slice(resident, func(i, j int) bool {
		a, _ := blocks.Index(resident[i])
		b, _ := blocks.Index(resident[j])
		return a < b
	})
	if len(resident) != be.Assoc() {
		return nil, fmt.Errorf("cachequery: reset leaves %d resident blocks, expected %d — not a valid reset",
			len(resident), be.Assoc())
	}
	return resident, nil
}

var (
	_ polca.Prober      = (*Prober)(nil)
	_ polca.FreshProber = (*Prober)(nil)
)
