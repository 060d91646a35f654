// evictstrategy: compute optimal eviction strategies from learned models.
//
// The paper's security discussion (§10) notes that detailed replacement
// policy models enable systematically computing optimal eviction
// strategies — minimal access sequences that force a chosen line out of a
// cache set, the building block of Prime+Probe-style attacks and of
// Rowhammer-quality eviction. This example learns several policies and
// derives, for every cache line, the shortest input sequence that evicts
// it, showing how strategies differ drastically across policies.
//
//	go run ./examples/evictstrategy
package main

import (
	"context"

	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/policy"
)

func main() {
	for _, name := range []string{"LRU", "PLRU", "New1", "New2"} {
		res, err := core.LearnSimulated(context.Background(), core.SimRequest{Policy: name, Assoc: 4, Learn: learn.Options{Depth: 1}})
		if err != nil {
			log.Fatal(err)
		}
		m := res.Machine
		fmt.Printf("%s (assoc 4, %d states) — shortest eviction strategies from the reset state:\n",
			name, m.NumStates)
		for line := 0; line < 4; line++ {
			w := m.ShortestEvictionWord(m.Init, line)
			if w == nil {
				fmt.Printf("  line %d: not evictable\n", line)
				continue
			}
			var steps []string
			for _, in := range w {
				steps = append(steps, policy.InputString(4, in))
			}
			fmt.Printf("  line %d: %-2d inputs  %s\n", line, len(w), strings.Join(steps, " "))
		}
		fmt.Println()
	}
	fmt.Println("Longer strategies mean the line is better protected by the policy;")
	fmt.Println("an attacker must issue that many congruent accesses to displace it.")
}
