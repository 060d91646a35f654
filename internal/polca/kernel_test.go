package polca

import (
	"context"
	"testing"

	"repro/internal/policy"
	"repro/internal/qstore"
)

// TestKernelOracleMatchesInterpreted replays every policy word up to depth 4
// through two oracles over the same policy — one on the compiled kernel, one
// forced onto the interpreted prober — and asserts identical outputs and
// bit-identical deterministic cost counters. The kernel must change how fast
// probes run, never what the oracle observes or counts.
func TestKernelOracleMatchesInterpreted(t *testing.T) {
	for _, c := range tenPolicies {
		t.Run(c.name, func(t *testing.T) {
			compiled := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			interp := NewOracle(NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)))
			if !compiled.prober.(*SimProber).Compiled() {
				t.Fatalf("%s: default prober is not on the compiled kernel", c.name)
			}
			if interp.prober.(*SimProber).Compiled() {
				t.Fatal("interpreted prober ended up compiled")
			}
			words := qstore.Enumerate(policy.NumInputs(c.assoc), 4)[1:]
			for _, w := range words {
				co, err := compiled.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatalf("compiled %v: %v", w, err)
				}
				io, err := interp.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatalf("interpreted %v: %v", w, err)
				}
				for i := range co {
					if co[i] != io[i] {
						t.Fatalf("word %v: compiled output %v, interpreted %v", w, co, io)
					}
				}
			}
			if cs, is := compiled.Stats(), interp.Stats(); cs != is {
				t.Fatalf("stats diverged: compiled %+v, interpreted %+v", cs, is)
			}
		})
	}
}

// TestKernelProberFallsBack: a policy over the compile bound (or violating
// the StateKey contract) silently keeps the interpreted path.
func TestKernelProberFallsBack(t *testing.T) {
	if NewSimProber(policy.NewRandom(4, 5)).Compiled() {
		t.Fatal("Random compiled onto the kernel")
	}
}
