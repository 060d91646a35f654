// explain: reproduce the §8 case study for the two previously undocumented
// Intel policies.
//
// The program learns New1 (Skylake/Kaby Lake L2) and New2 (their L3 leader
// sets) from software-simulated caches, synthesizes rule-based explanations
// for both, prints them next to the paper's published descriptions, and
// cross-checks the synthesized programs by running them as replacement
// policies.
//
//	go run ./examples/explain
package main

import (
	"context"

	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
	"repro/internal/synth"
)

var paperDescriptions = map[string]string{
	"New1": `  (paper §8) initial {3,3,3,0}; promote: age := 0; evict: first line
  with age 3; insert: age := 1; normalize after hit and miss: while no
  line has age 3, increase all ages except the touched line.`,
	"New2": `  (paper §8) initial {3,3,3,3}; promote: 1 -> 0, otherwise -> 1;
  evict: first line with age 3; insert: age := 1; normalize after hit and
  miss: while no line has age 3, increase all ages.`,
}

func main() {
	for _, name := range []string{"New1", "New2"} {
		// Learn the policy from a simulated cache, as in §6.
		res, err := core.LearnSimulated(context.Background(), core.SimRequest{Policy: name, Assoc: 4, Learn: learn.Options{Depth: 1}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: learned %d control states (%d output queries, %v)\n",
			name, res.Machine.NumStates, res.LearnStats.OutputQueries,
			res.LearnStats.Duration.Round(1e6))

		// Synthesize the explanation.
		expl, err := core.Explain(res.Machine, synth.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsynthesized with the %s template (%d candidates, %v):\n%s\n",
			expl.Template, expl.Candidates, expl.Duration.Round(1e6), expl.Program)
		fmt.Printf("%s\n\n", paperDescriptions[name])

		// Close the loop: the synthesized program *is* a replacement
		// policy; running it must reproduce the learned machine.
		back, err := mealy.FromPolicyState(synth.NewRulePolicy(expl.Program), 0)
		if err != nil {
			log.Fatal(err)
		}
		if eq, _ := back.Equivalent(res.Machine); !eq {
			log.Fatalf("%s: synthesized program does not reproduce the machine", name)
		}
		fmt.Printf("cross-check: executing the synthesized program reproduces the learned %s exactly.\n", name)
		truth, _ := mealy.FromPolicy(policy.MustNew(name, 4), 0)
		if eq, _ := back.Equivalent(truth); eq {
			fmt.Printf("cross-check: it also matches the native %s implementation.\n\n", name)
		}
		fmt.Println("────────────────────────────────────────────────────────")
	}
}
