package polca

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/policy"
	"repro/internal/qstore"
)

// TestKernelOracleMatchesInterpreted replays every policy word up to depth 4
// through two oracles over the same policy — one on the compiled kernel's
// engine, one forced onto the interpreted prober and so onto the probe
// path — and asserts identical outputs and identical recorded snapshots.
// The kernel must change how fast and how cheaply queries are answered,
// never what the oracle observes.
func TestKernelOracleMatchesInterpreted(t *testing.T) {
	for _, c := range tenPolicies {
		t.Run(c.name, func(t *testing.T) {
			compiled := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			interp := NewOracle(NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)))
			if compiled.sim == nil {
				t.Fatalf("%s: default prober is not on the compiled kernel's engine", c.name)
			}
			if interp.sim != nil {
				t.Fatal("interpreted prober ended up on the engine")
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
			var cs, is bytes.Buffer
			if err := compiled.SaveSnapshot(&cs, "s"); err != nil {
				t.Fatal(err)
			}
			if err := interp.SaveSnapshot(&is, "s"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cs.Bytes(), is.Bytes()) {
				t.Fatal("compiled and interpreted oracles recorded different snapshots")
			}
		})
	}
}

// TestKernelProberFallsBack: a policy over the compile bound (or violating
// the StateKey contract) silently keeps the interpreted prober, and its
// oracle answers on the probe path.
func TestKernelProberFallsBack(t *testing.T) {
	p := NewSimProber(policy.NewRandom(4, 5))
	if p.Compiled() {
		t.Fatal("Random compiled onto the kernel")
	}
	if NewOracle(p).sim != nil {
		t.Fatal("an uncompiled prober's oracle runs the engine")
	}
}
