package policy_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/synth"
)

// stringCompile is the reference compile search: breadth-first over
// Clone/Apply with the StateKey string as state identity, the search
// policy.CompileState ran before it keyed states by packed integers. It
// returns the flat next/out arrays and the key of every state, or the error
// the bound produces.
func stringCompile(p policy.Policy, maxStates int) (next, out []int32, keys []string, err error) {
	numIn := policy.NumInputs(p.Assoc())
	root := p.Clone()
	index := map[string]int32{root.StateKey(): 0}
	frontier := []policy.Policy{root}
	keys = []string{root.StateKey()}
	for head := 0; head < len(frontier); head++ {
		for a := 0; a < numIn; a++ {
			succ := frontier[head].Clone()
			o := policy.Apply(succ, a)
			key := succ.StateKey()
			id, seen := index[key]
			if !seen {
				id = int32(len(frontier))
				if maxStates > 0 && int(id) >= maxStates {
					return nil, nil, nil, fmt.Errorf("policy: %s has more than %d reachable states", p.Name(), maxStates)
				}
				index[key] = id
				frontier = append(frontier, succ)
				keys = append(keys, key)
			}
			next = append(next, id)
			out = append(out, int32(o))
		}
	}
	return next, out, keys, nil
}

// checkPackedCompile compiles p with policy.CompileState and with the
// string-keyed reference search and requires the same table: the same
// successor and output of every (state, input) pair and the same StateKey
// per state id, or the same error.
func checkPackedCompile(t *testing.T, label string, p policy.Policy, maxStates int) {
	t.Helper()
	next, out, keys, refErr := stringCompile(p, maxStates)
	tab, err := policy.CompileState(p, maxStates)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: compile error %v, reference error %v", label, err, refErr)
		}
		return
	}
	if tab.NumStates() != len(keys) {
		t.Fatalf("%s: %d states, reference %d", label, tab.NumStates(), len(keys))
	}
	numIn := tab.NumInputs()
	for s := int32(0); int(s) < len(keys); s++ {
		if got := tab.KeyOf(s); got != keys[s] {
			t.Fatalf("%s: state %d key %q, reference %q", label, s, got, keys[s])
		}
		for a := 0; a < numIn; a++ {
			n, o := tab.Step(s, a)
			if i := int(s)*numIn + a; n != next[i] || o != out[i] {
				t.Fatalf("%s: state %d input %d -> (%d, %d), reference (%d, %d)", label, s, a, n, o, next[i], out[i])
			}
		}
	}
}

// TestPackedCompileMatchesStringCompile: compiling on packed (or interned)
// integer state keys yields exactly the table of the string-keyed search —
// every registered policy at associativity 2-8, the simulated Skylake and
// Kaby Lake L3 policies at 12 and 16 ways (over the bound: both searches
// fail alike), and every committed RuleZ zoo member.
func TestPackedCompileMatchesStringCompile(t *testing.T) {
	bound := policy.DefaultCompileStates
	if testing.Short() {
		bound = 1 << 14
	}
	for assoc := 2; assoc <= 8; assoc++ {
		for _, name := range policy.Names() {
			p, err := policy.New(name, assoc)
			if err != nil {
				if strings.EqualFold(name, "plru") {
					continue
				}
				t.Fatal(err)
			}
			checkPackedCompile(t, fmt.Sprintf("%s-%d", name, assoc), p, bound)
		}
	}
	for _, name := range []string{"New2", "BRRIP"} {
		for _, assoc := range []int{12, 16} {
			checkPackedCompile(t, fmt.Sprintf("%s-%d", name, assoc), policy.MustNew(name, assoc), 1<<14)
		}
	}
	rules := 0
	for _, m := range synth.Family(synth.FamilySeed) {
		if m.Kind != "rule" {
			continue
		}
		rules++
		checkPackedCompile(t, m.Name, m.New(), synth.ZooStateCap)
	}
	if rules == 0 {
		t.Fatal("the zoo has no RuleZ members")
	}
	// A bound below the reachable count fails with the reference's text.
	checkPackedCompile(t, "LRU-4 bound 5", policy.MustNew("LRU", 4), 5)
}
