package polca

import (
	"context"
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// fakeFleet wraps a simulator behind the fleet-shaped prober surface —
// Probe/ProbeBatch only, concurrency-safe, with an adjustable reported
// fleet width — and records how eviction probes arrive: grouped through
// ProbeBatch or one by one.
type fakeFleet struct {
	mu       sync.Mutex
	inner    *SimProber
	width    int
	batches  int
	maxBatch int
	singles  int
}

func (f *fakeFleet) Assoc() int                     { return f.inner.Assoc() }
func (f *fakeFleet) InitialContent() []blocks.Block { return f.inner.InitialContent() }
func (f *fakeFleet) ConcurrentProbes() bool         { return true }
func (f *fakeFleet) FleetWidth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.width
}

func (f *fakeFleet) setWidth(w int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.width = w
}

func (f *fakeFleet) run(q []blocks.Block) (cache.Outcome, error) {
	s, err := f.inner.NewSession()
	if err != nil {
		return cache.Miss, err
	}
	oc := cache.Miss
	for _, b := range q {
		if oc, err = s.Access(b); err != nil {
			return cache.Miss, err
		}
	}
	return oc, nil
}

func (f *fakeFleet) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	f.mu.Lock()
	f.singles++
	f.mu.Unlock()
	return f.run(q)
}

func (f *fakeFleet) ProbeBatch(ctx context.Context, qs [][]blocks.Block) ([]cache.Outcome, error) {
	f.mu.Lock()
	f.batches++
	if len(qs) > f.maxBatch {
		f.maxBatch = len(qs)
	}
	f.mu.Unlock()
	out := make([]cache.Outcome, len(qs))
	for i, q := range qs {
		oc, err := f.run(q)
		if err != nil {
			return nil, err
		}
		out[i] = oc
	}
	return out, nil
}

var (
	_ ProbeBatcher     = (*fakeFleet)(nil)
	_ ConcurrentProber = (*fakeFleet)(nil)
	_ FleetWidther     = (*fakeFleet)(nil)
)

// TestBatchHintTracksFleetWidth: a fleet-backed oracle's BatchHint scales
// with the live fleet width — re-read on every call, so it grows when
// workers join and shrinks back when they are quarantined — instead of
// freezing at a constant.
func TestBatchHintTracksFleetWidth(t *testing.T) {
	f := &fakeFleet{inner: NewSimProber(policy.MustNew("LRU", 4)), width: 2}
	o := NewOracle(f)

	h2 := o.BatchHint()
	f.setWidth(8)
	h8 := o.BatchHint()
	f.setWidth(16)
	h16 := o.BatchHint()
	f.setWidth(2)
	hBack := o.BatchHint()

	if h2 < engineHint {
		t.Errorf("width-2 hint %d below the engine floor %d", h2, engineHint)
	}
	if h8 != 8*fleetDepth || h16 != 16*fleetDepth {
		t.Errorf("hints (%d, %d) do not scale with fleet width (want %d, %d)",
			h8, h16, 8*fleetDepth, 16*fleetDepth)
	}
	if !(h2 < h8 && h8 < h16) {
		t.Errorf("hint not monotone in width: %d, %d, %d", h2, h8, h16)
	}
	if hBack != h2 {
		t.Errorf("hint %d after width shrank back, want %d", hBack, h2)
	}

	// A width-0 fleet (everything quarantined mid-flight) falls back to
	// the non-fleet resolution rather than advertising zero parallelism.
	f.setWidth(0)
	if h := o.BatchHint(); h < 1 {
		t.Errorf("width-0 hint %d, want >= 1", h)
	}
}

// unbatchedFleet hides fakeFleet's ProbeBatch, so the oracle issues the
// eviction probes one by one.
type unbatchedFleet struct{ f *fakeFleet }

func (u unbatchedFleet) Assoc() int                     { return u.f.Assoc() }
func (u unbatchedFleet) InitialContent() []blocks.Block { return u.f.InitialContent() }
func (u unbatchedFleet) ConcurrentProbes() bool         { return true }
func (u unbatchedFleet) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	return u.f.Probe(ctx, q)
}

// TestFleetTrieBatchedEvictionMatchesSerial: on the memoized trie path, an
// oracle over a fleet-shaped prober groups each Evct's associativity-many
// eviction probes into one ProbeBatch call, and its answers, memo sizes and
// counters are identical to the serial loop's.
func TestFleetTrieBatchedEvictionMatchesSerial(t *testing.T) {
	mk := func() *fakeFleet {
		return &fakeFleet{inner: NewSimProber(policy.MustNew("PLRU", 4)), width: 4}
	}
	grouped := mk()
	serial := mk()
	og := NewOracle(grouped)
	os := NewOracle(unbatchedFleet{serial})

	words := [][]int{
		{4, 4, 0, 4},
		{4, 0, 4, 1, 4, 4},
		{4, 4, 4, 4, 2, 0},
		{4, 4, 0, 4}, // repeat: must be pure memo on both oracles
	}
	for _, w := range words {
		got, err := og.OutputQuery(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.OutputQuery(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %v: grouped answered %v, serial %v", w, got, want)
			}
		}
	}

	sg, ss := og.Stats(), os.Stats()
	if sg != ss {
		t.Errorf("grouped stats %+v != serial stats %+v", sg, ss)
	}
	if grouped.batches == 0 {
		t.Fatal("no eviction group ever travelled through ProbeBatch")
	}
	if grouped.maxBatch != 4 {
		t.Errorf("largest grouped call carried %d probes, want assoc=4", grouped.maxBatch)
	}
	if serial.batches != 0 {
		t.Errorf("serial oracle issued %d batched calls, want 0", serial.batches)
	}
}
