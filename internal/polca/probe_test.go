package polca

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// groupRecorder serves a simulated cache on the reset-rooted probe path,
// serialized so that batches may fan out over it, and records every
// eviction-group run: runs counts the runs per Evct prefix (the blocks a
// run re-accesses lines after), and firsts keeps each run that covers the
// whole group.
type groupRecorder struct {
	inner  Prober
	mu     sync.Mutex
	runs   map[string]int
	firsts [][]blocks.Block
}

func newGroupRecorder(pol policy.Policy) *groupRecorder {
	return &groupRecorder{inner: SlowProber{P: NewSimProber(pol)}, runs: make(map[string]int)}
}

func (r *groupRecorder) Assoc() int                     { return r.inner.Assoc() }
func (r *groupRecorder) InitialContent() []blocks.Block { return r.inner.InitialContent() }
func (r *groupRecorder) ConcurrentProbes() bool         { return true }

func (r *groupRecorder) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner.Probe(ctx, q)
}

func (r *groupRecorder) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs[fmt.Sprint(q[:len(q)-k])]++
	if k == r.inner.Assoc() {
		r.firsts = append(r.firsts, append([]blocks.Block(nil), q...))
	}
	return r.inner.ProbeTrace(ctx, q, k)
}

// groupWord draws a word in which Evct is frequent, so that words carry
// several eviction groups.
func groupWord(rng *rand.Rand, assoc, length int) []int {
	w := make([]int, length)
	for i := range w {
		if rng.Intn(5) < 2 {
			w[i] = assoc
		} else {
			w[i] = rng.Intn(assoc)
		}
	}
	return w
}

// probeKey is the probe-store key of a block sequence.
func probeKey(t *testing.T, q []blocks.Block) []int32 {
	t.Helper()
	ids := make([]int32, len(q))
	for i, b := range q {
		id, err := blocks.Index(b)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = int32(id)
	}
	return ids
}

// TestGroupedAndOneByOneGroupsAgree: eviction groups answered by at most
// two suffix-profiled runs agree with the audit's one fresh probe per
// member, over the ten published policies plus New1-8 and seeded words.
// Each distinct Evct prefix runs at most twice, no member needs a
// re-measure, and every member answer a run memoized equals a fresh single
// probe of its key — answers past a run's first miss are never trusted.
func TestGroupedAndOneByOneGroupsAgree(t *testing.T) {
	cases := append(tenPolicies[:len(tenPolicies):len(tenPolicies)], struct {
		name  string
		assoc int
	}{"New1", 8})
	ctx := context.Background()
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.name, c.assoc), func(t *testing.T) {
			pol := policy.MustNew(c.name, c.assoc)
			rec := newGroupRecorder(pol)
			o := NewOracle(rec)
			rng := rand.New(rand.NewSource(int64(17 + c.assoc)))
			for i := 0; i < 30; i++ {
				word := groupWord(rng, c.assoc, 12)
				got, err := o.OutputQuery(ctx, word)
				if err != nil {
					t.Fatal(err)
				}
				want, err := o.outputQueryProbes(ctx, word)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("word %v: group runs answered %v, single probes %v", word, got, want)
				}
			}
			if st := o.Stats(); st.Reprobes != 0 {
				t.Errorf("%d members re-measured on a deterministic cache", st.Reprobes)
			}
			if len(rec.firsts) == 0 {
				t.Fatal("no eviction group ran")
			}
			for prefix, n := range rec.runs {
				if n > 2 {
					t.Errorf("Evct prefix %s ran %d times, want at most 2", prefix, n)
				}
			}
			single := NewSimProber(pol)
			for _, q := range rec.firsts {
				prefix := q[:len(q)-c.assoc]
				for _, b := range q[len(prefix):] {
					member := append(prefix[:len(prefix):len(prefix)], b)
					want, err := single.Probe(ctx, member)
					if err != nil {
						t.Fatal(err)
					}
					got, ok := o.pt.Get(probeKey(t, member))
					if !ok || got.oc != want {
						t.Fatalf("member %v: memo holds (%v, %v), a fresh single probe answers %v", member, got.oc, ok, want)
					}
				}
			}
		})
	}
}

// TestGroupRunCountersDeterministic: parallel words that share Evct
// prefixes claim each eviction group as one unit, so every distinct group
// runs once (at most two runs) and the oracle counters are identical at
// GOMAXPROCS 1 and 8.
func TestGroupRunCountersDeterministic(t *testing.T) {
	for _, name := range []string{"PLRU", "New1"} {
		pol := policy.MustNew(name, 8)
		rng := rand.New(rand.NewSource(3))
		var words [][]int
		for p := 0; p < 6; p++ {
			prefix := groupWord(rng, 8, 6)
			for s := 0; s < 6; s++ {
				w := append(append([]int(nil), prefix...), groupWord(rng, 8, 5)...)
				words = append(words, w, w)
			}
		}
		run := func(procs int) (Stats, map[string]int, [][]int) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rec := newGroupRecorder(pol)
			o := NewOracle(rec, WithParallelism(8))
			outs, err := o.OutputQueryBatch(context.Background(), words)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS=%d: %v", name, procs, err)
			}
			return o.Stats(), rec.runs, outs
		}
		refStats, refRuns, refOuts := run(1)
		for prefix, n := range refRuns {
			if n > 2 {
				t.Errorf("%s: Evct prefix %s ran %d times, want at most 2", name, prefix, n)
			}
		}
		for _, procs := range []int{8, 8} {
			st, runs, outs := run(procs)
			if st != refStats {
				t.Errorf("%s at GOMAXPROCS=%d: stats %+v, want %+v", name, procs, st, refStats)
			}
			if !reflect.DeepEqual(runs, refRuns) {
				t.Errorf("%s at GOMAXPROCS=%d: group runs differ from the serial learn", name, procs)
			}
			if !reflect.DeepEqual(outs, refOuts) {
				t.Errorf("%s at GOMAXPROCS=%d: answers differ from the serial learn", name, procs)
			}
		}
	}
}

// gatedTrace holds its first group run until gate closes.
type gatedTrace struct {
	inner         Prober
	started, gate chan struct{}
	once          sync.Once
	mu            sync.Mutex
	runs          int
}

func (p *gatedTrace) Assoc() int                     { return p.inner.Assoc() }
func (p *gatedTrace) InitialContent() []blocks.Block { return p.inner.InitialContent() }
func (p *gatedTrace) Probe(ctx context.Context, q []blocks.Block) (cache.Outcome, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inner.Probe(ctx, q)
}
func (p *gatedTrace) ProbeTrace(ctx context.Context, q []blocks.Block, k int) ([]cache.Outcome, error) {
	p.once.Do(func() {
		close(p.started)
		<-p.gate
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs++
	return p.inner.ProbeTrace(ctx, q, k)
}

// TestGroupClaimJoinersShareOneRun: an eviction group holds the claim at
// its Evct prefix while it runs. A concurrent requester joins it instead
// of running the group again, and a later one reads the recorded victim;
// both count the group's members as memo hits.
func TestGroupClaimJoinersShareOneRun(t *testing.T) {
	p := &gatedTrace{inner: NewSimProber(policy.MustNew("LRU", 4)), started: make(chan struct{}), gate: make(chan struct{})}
	o := NewOracle(p)
	ctx := context.Background()
	ic, icN, cc := []int32{4}, []blocks.Block{blocks.Interned(4)}, []int32{0, 1, 2, 3}
	type answer struct {
		victim int
		err    error
	}
	first := make(chan answer, 1)
	go func() {
		v, err := o.findEvicted(ctx, ic, icN, cc, false)
		first <- answer{v, err}
	}()

	<-p.started
	_, _, fl, own := o.claimNode(ic, true)
	if fl == nil || own {
		t.Fatal("the running group did not hold the claim at its Evct prefix")
	}
	close(p.gate)
	if err := o.await(fl, len(cc)); err != nil || fl.victim != 0 {
		t.Fatalf("joiner got (%d, %v), want victim 0", fl.victim, err)
	}
	if a := <-first; a.err != nil || a.victim != 0 {
		t.Fatalf("group got (%d, %v), want victim 0", a.victim, a.err)
	}
	// LRU-4 evicts line 0, the first access of run 1, so run 2 covers
	// lines 1..3: 5 + 4 accesses.
	if st := o.Stats(); p.runs != 2 || st.Probes != 2 || st.Accesses != 9 || st.MemoHits != 4 {
		t.Errorf("%d runs, stats %+v; want 2 runs, 2 probes, 9 accesses, 4 memo hits", p.runs, st)
	}
	if v, err := o.findEvicted(ctx, ic, icN, cc, false); err != nil || v != 0 {
		t.Fatalf("recorded group answered (%d, %v), want victim 0", v, err)
	}
	if st := o.Stats(); p.runs != 2 || st.MemoHits != 8 {
		t.Errorf("recorded group: %d runs, %d memo hits; want 2 runs, 8 memo hits", p.runs, st.MemoHits)
	}
}
