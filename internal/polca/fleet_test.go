package polca

import (
	"context"
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// fakeFleet wraps a simulator behind the fleet-shaped prober surface:
// concurrency-safe, with an adjustable reported fleet width.
type fakeFleet struct {
	mu    sync.Mutex
	inner *SimProber
	width int
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

func (f *fakeFleet) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.Probe(ctx, q)
}

func (f *fakeFleet) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.ProbeTrace(ctx, q, k)
}

var (
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
