package policy

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// compileAll compiles every registered policy at the given associativity,
// skipping constructor constraints (PLRU at non-powers of two). In -short
// mode the exploration is bounded so the big assoc-8 state spaces (up to
// 65,536 states for SRRIP-FP-8) don't dominate the race-enabled CI run;
// policies over the bound are skipped there and covered by the nightly full
// suite.
func compileAll(t *testing.T, assoc int) map[string]*Table {
	t.Helper()
	bound := DefaultCompileStates
	if testing.Short() {
		bound = 20000
	}
	out := make(map[string]*Table)
	for _, name := range Names() {
		p, err := New(name, assoc)
		if err != nil {
			if strings.EqualFold(name, "plru") {
				continue
			}
			t.Fatalf("New(%s, %d): %v", name, assoc, err)
		}
		tab, err := CompileBound(p, bound)
		if err != nil {
			if strings.Contains(err.Error(), "more than") {
				// Over the bound (e.g. BIP-8's recency×counter product
				// space): exactly the policies the interpreted fallback
				// exists for.
				continue
			}
			t.Fatalf("Compile(%s, %d): %v", name, assoc, err)
		}
		out[name] = tab
	}
	return out
}

// TestCompiledMatchesInterpreted is the compiled↔interpreted equivalence
// property: for every registered policy at associativity 4 and 8, replaying
// a random input word through the interpreted Policy and its compiled Table
// produces identical outputs and identical StateKey strings at every step.
// Key equality is stronger than the required StateKey partitioning — the
// table serves the canonical interpreted keys verbatim — so states are
// partitioned identically by construction, and the check also pins the
// drop-in property (cache.Set.StateKey, reset search, and snapshots see
// bit-identical keys either way).
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, assoc := range []int{4, 8} {
		for name, tab := range compileAll(t, assoc) {
			p := MustNew(name, assoc)
			p.Reset()
			tt := tab.Clone()
			tt.Reset()
			rng := rand.New(rand.NewSource(int64(13*assoc) + int64(len(name))))
			for i := 0; i < 400; i++ {
				in := rng.Intn(NumInputs(assoc))
				if got, want := Apply(tt, in), Apply(p, in); got != want {
					t.Fatalf("%s-%d: compiled output %d, interpreted %d at step %d", name, assoc, got, want, i)
				}
				if got, want := tt.StateKey(), p.StateKey(); got != want {
					t.Fatalf("%s-%d: compiled state %q, interpreted %q at step %d", name, assoc, got, want, i)
				}
				if i == 200 {
					// Forked clones must be independent values.
					save := tt.StateKey()
					fork := tt.Clone()
					fork.OnMiss()
					if tt.StateKey() != save {
						t.Fatalf("%s-%d: clone mutation leaked into the original", name, assoc)
					}
				}
			}
		}
	}
}

// TestCompiledStatePartition checks the partition property directly on the
// table: two distinct state ids never carry the same interpreted key, so
// integer state identity and StateKey identity coincide.
func TestCompiledStatePartition(t *testing.T) {
	for name, tab := range compileAll(t, 4) {
		seen := make(map[string]int32, tab.NumStates())
		for s := int32(0); int(s) < tab.NumStates(); s++ {
			key := tab.KeyOf(s)
			if prev, dup := seen[key]; dup {
				t.Fatalf("%s: states %d and %d share key %q", name, prev, s, key)
			}
			seen[key] = s
		}
	}
}

// TestCompileMatchesMealyStateCounts pins the compiled state spaces of the
// published assoc-4 policies: the raw reachable control-state counts of the
// extraction (New2's 175 raw states minimize to the paper's 160; the others
// are already minimal).
func TestCompileMatchesMealyStateCounts(t *testing.T) {
	want := map[string]int{
		"FIFO": 4, "LRU": 24, "PLRU": 8, "MRU": 14,
		"LIP": 24, "SRRIP-HP": 178, "SRRIP-FP": 256, "New1": 160, "New2": 175,
	}
	tabs := compileAll(t, 4)
	for name, states := range want {
		tab, ok := tabs[strings.ToLower(name)]
		if !ok {
			t.Fatalf("%s not compiled", name)
		}
		if tab.NumStates() != states {
			t.Errorf("%s-4: %d compiled states, want %d", name, tab.NumStates(), states)
		}
	}
}

// TestCompileRejectsNondeterministic: policy.Random violates the StateKey
// contract (its behaviour is not a function of its control state), so the
// validation replay must refuse to compile it and CompileOrSelf must fall
// back to the interpreted policy.
func TestCompileRejectsNondeterministic(t *testing.T) {
	r := NewRandom(4, 7)
	if tab, err := Compile(r); err == nil {
		t.Fatalf("Compile(Random) produced a %d-state table; want an error", tab.NumStates())
	}
	if got := CompileOrSelf(NewRandom(4, 7)); got.Name() != "Random" {
		t.Fatalf("CompileOrSelf(Random) = %T %s, want the interpreted policy", got, got.Name())
	}
}

// TestCompileBoundFallsBack: a bound below the reachable state count fails
// loudly and CompileOrSelf hands back the original policy.
func TestCompileBound(t *testing.T) {
	if _, err := CompileBound(NewLRU(4), 5); err == nil {
		t.Fatal("CompileBound(LRU-4, 5) succeeded; LRU-4 has 24 states")
	}
	tab, err := CompileBound(NewLRU(4), 24)
	if err != nil {
		t.Fatalf("CompileBound(LRU-4, 24): %v", err)
	}
	if tab.NumStates() != 24 {
		t.Fatalf("LRU-4 compiled to %d states, want 24", tab.NumStates())
	}
	// CompileOrSelf short-circuits on an existing table.
	if CompileOrSelf(tab) != Policy(tab) {
		t.Fatal("CompileOrSelf(table) did not return the table itself")
	}
}

// TestCompileState roots the table at a non-initial control state, the
// compiled analog of mealy.FromPolicyState.
func TestCompileState(t *testing.T) {
	p := NewLRU(4)
	p.OnMiss()
	p.OnHit(2)
	key := p.StateKey()
	tab, err := CompileState(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.StateKey() != key {
		t.Fatalf("rooted table starts at %q, want %q", tab.StateKey(), key)
	}
	if tab.InitState() != 0 || tab.State() != 0 {
		t.Fatalf("rooted table init/state = %d/%d, want 0/0", tab.InitState(), tab.State())
	}
}

// TestTableViews: At returns independent positioned views sharing the
// arrays, and Step never touches the receiver state.
func TestTableViews(t *testing.T) {
	tab, err := Compile(NewLRU(4))
	if err != nil {
		t.Fatal(err)
	}
	v := tab.At(5)
	if v.State() != 5 || tab.State() != 0 {
		t.Fatalf("At leaked state: view %d, original %d", v.State(), tab.State())
	}
	next, out := tab.Step(0, tab.Assoc())
	if tab.State() != 0 {
		t.Fatal("Step mutated the receiver")
	}
	v2 := tab.At(0)
	if got := v2.OnMiss(); got != int(out) {
		t.Fatalf("Step output %d, OnMiss %d", out, got)
	}
	if v2.State() != next {
		t.Fatalf("Step successor %d, OnMiss landed in %d", next, v2.State())
	}
}

// countingLRU is LRU with a shared count of its Clone calls: one compile
// search clones once per explored transition, so the count tells how many
// searches ran.
type countingLRU struct {
	LRU
	clones *atomic.Int64
}

func (p *countingLRU) Clone() Policy {
	p.clones.Add(1)
	return &countingLRU{LRU: *p.LRU.Clone().(*LRU), clones: p.clones}
}

var singleFlightRuns atomic.Int64

// TestCompileCacheSingleFlight: 16 goroutines asking CompileNamed for one
// key run exactly one compile search and share its table; a failure (over
// the bound) is cached the same way, and later requests search nothing.
func TestCompileCacheSingleFlight(t *testing.T) {
	var clones atomic.Int64
	name := fmt.Sprintf("counting-lru-%d", singleFlightRuns.Add(1))
	Register(name, func(assoc int) (Policy, error) {
		return &countingLRU{LRU: *NewLRU(assoc), clones: &clones}, nil
	})
	t.Cleanup(func() { delete(registry, name) })

	for _, bound := range []int{0, 5} {
		clones.Store(0)
		ref, refErr := CompileBound(MustNew(name, 4), bound)
		perSearch := clones.Load()
		if perSearch == 0 {
			t.Fatal("the counting policy was never cloned")
		}

		clones.Store(0)
		const callers = 16
		tabs := make([]*Table, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tabs[g], errs[g] = CompileNamed(name, 4, bound)
			}()
		}
		wg.Wait()
		if got := clones.Load(); got != perSearch {
			t.Fatalf("bound %d: %d callers cloned %d times, one search clones %d", bound, callers, got, perSearch)
		}
		for g := 0; g < callers; g++ {
			if tabs[g] != tabs[0] {
				t.Fatalf("bound %d: caller %d got a different table", bound, g)
			}
			if (refErr == nil) != (errs[g] == nil) || (refErr != nil && errs[g].Error() != refErr.Error()) {
				t.Fatalf("bound %d: caller %d error %v, direct compile %v", bound, g, errs[g], refErr)
			}
		}
		if refErr == nil && tabs[0].NumStates() != ref.NumStates() {
			t.Fatalf("bound %d: cached table has %d states, direct compile %d", bound, tabs[0].NumStates(), ref.NumStates())
		}
		if bound > 0 && refErr == nil {
			t.Fatalf("bound %d: LRU-4 compiled although it has 24 states", bound)
		}
		if tab, err := CompileNamed(strings.ToUpper(name), 4, bound); tab != tabs[0] || (err == nil) != (refErr == nil) {
			t.Fatalf("bound %d: a later request returned %v, %v", bound, tab, err)
		}
		if got := clones.Load(); got != perSearch {
			t.Fatalf("bound %d: a later request searched again (%d clones, want %d)", bound, got, perSearch)
		}
	}
}
