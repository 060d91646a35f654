package polca

import (
	"context"
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// missingProber answers every probe with a miss, the answer of a cache whose
// eviction group names every line. Its first probe closes started and
// waits on gate, and it counts executions per final block.
type missingProber struct {
	started, gate chan struct{}
	once          sync.Once
	mu            sync.Mutex
	calls         map[blocks.Block]int
}

func (p *missingProber) Assoc() int                     { return 4 }
func (p *missingProber) InitialContent() []blocks.Block { return blocks.Ordered(4) }
func (p *missingProber) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	p.once.Do(func() {
		close(p.started)
		<-p.gate
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls[q[len(q)-1]]++
	return cache.Miss, nil
}

// TestStoppedGroupHandsClaimsToJoiners: one-by-one group execution stops at
// the group's second miss, and a claim it leaves unexecuted is released
// unrecorded. A concurrent requester that joined that claim must then run
// the probe itself — once — instead of failing or waiting forever.
func TestStoppedGroupHandsClaimsToJoiners(t *testing.T) {
	p := &missingProber{started: make(chan struct{}), gate: make(chan struct{}), calls: make(map[blocks.Block]int)}
	o := NewOracle(p)
	g := make([]memoProbe, 3)
	for i := range g {
		g[i].ids = []int32{4, int32(i)}
		g[i].q = []blocks.Block{blocks.Interned(4), blocks.Interned(i)}
	}
	ocs := make([]cache.Outcome, len(g))
	errc := make(chan error, 1)
	go func() { errc <- o.probeGroup(context.Background(), g, ocs) }()

	// Join the third member's claim while the group is stuck in its first
	// execution: the group claims all its keys before executing any.
	<-p.started
	joiner := memoProbe{ids: g[2].ids, q: g[2].q}
	o.claim(&joiner, &flights{max: 1})
	if joiner.fl == nil || joiner.own {
		t.Fatal("the group did not hold its third key while executing its first")
	}
	close(p.gate)
	oc, err := o.join(context.Background(), &joiner)
	if err != nil || oc != cache.Miss {
		t.Fatalf("joiner got (%v, %v), want (Miss, nil)", oc, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("group failed: %v", err)
	}
	for i, b := range []blocks.Block{blocks.Interned(0), blocks.Interned(1), blocks.Interned(2)} {
		if p.calls[b] != 1 {
			t.Errorf("member %d executed %d times, want 1", i, p.calls[b])
		}
	}
	if st := o.Stats(); st.Probes != 3 || st.MemoHits != 0 {
		t.Errorf("stats %+v, want 3 probes and no memo hits", st)
	}
	again := memoProbe{ids: g[2].ids}
	if o.claim(&again, &flights{max: 1}); again.fl != nil {
		t.Error("the joiner's execution was not memoized")
	}
}

// TestGroupedAndOneByOneGroupsAgree: the same eviction groups answer with
// identical outcomes, stores and counters whether their claims travel in
// one ProbeBatch call or one by one, including groups that are partly
// answered by the memo.
func TestGroupedAndOneByOneGroupsAgree(t *testing.T) {
	mk := func() *fakeFleet { return &fakeFleet{inner: NewSimProber(policy.MustNew("LRU", 4)), width: 1} }
	grouped, serial := mk(), mk()
	og, os := NewOracle(grouped), NewOracle(unbatchedFleet{serial})
	ctx := context.Background()
	for _, o := range []*Oracle{og, os} {
		// Memoize one member of the first group before it is asked.
		if _, err := o.probe(ctx, []blocks.Block{blocks.Interned(4), blocks.Interned(1)}, []int32{4, 1}); err != nil {
			t.Fatal(err)
		}
	}
	// The Evct groups of the word Evct Evct on LRU-4: each fed block evicts
	// the least recently used line. The first group has one member in the
	// memo, so its grouped call carries three probes; the last repeats it
	// and is answered by the memo alone.
	for _, tc := range []struct {
		ic, cc  []int32
		want    int
		batches int // grouped calls so far
		largest int // largest grouped call so far
	}{
		{[]int32{4}, []int32{0, 1, 2, 3}, 0, 1, 3},
		{[]int32{4, 5}, []int32{4, 1, 2, 3}, 1, 2, 4},
		{[]int32{4}, []int32{0, 1, 2, 3}, 0, 2, 4},
	} {
		icN := make([]blocks.Block, len(tc.ic))
		for i, b := range tc.ic {
			icN[i] = blocks.Interned(int(b))
		}
		a, err1 := og.findEvicted(ctx, tc.ic, icN, tc.cc, false)
		b, err2 := os.findEvicted(ctx, tc.ic, icN, tc.cc, false)
		if err1 != nil || err2 != nil || a != tc.want || b != tc.want {
			t.Fatalf("group after %v: grouped (%d, %v), one by one (%d, %v), want victim %d",
				tc.ic, a, err1, b, err2, tc.want)
		}
		if grouped.batches != tc.batches || grouped.maxBatch != tc.largest {
			t.Errorf("after group %v: %d grouped calls, largest %d; want %d, largest %d",
				tc.ic, grouped.batches, grouped.maxBatch, tc.batches, tc.largest)
		}
	}
	if sg, ss := og.Stats(), os.Stats(); sg != ss {
		t.Errorf("grouped stats %+v != one-by-one stats %+v", sg, ss)
	}
	if gn, sn := og.pt.NodeCount(), os.pt.NodeCount(); gn != sn {
		t.Errorf("probe store nodes: grouped %d, one by one %d", gn, sn)
	}
	if serial.batches != 0 {
		t.Errorf("one-by-one oracle issued %d grouped calls", serial.batches)
	}
}
