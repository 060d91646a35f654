package learn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/intern"
	"repro/internal/mealy"
)

// identificationSetsMap is the map-based greedy cover identificationSets
// replaced: per state, a map of the states W has not yet separated from
// it. It is kept as the reference the bitset version must equal.
func identificationSetsMap(hyp *mealy.Machine, w [][]int) [][][]int {
	ids := intern.New()
	sigTab := make([][]int32, hyp.NumStates)
	for s := 0; s < hyp.NumStates; s++ {
		sigTab[s] = make([]int32, len(w))
		for i, word := range w {
			sigTab[s][i] = ids.Word(hyp.RunFrom(s, word))
		}
	}
	out := make([][][]int, hyp.NumStates)
	for s := 0; s < hyp.NumStates; s++ {
		alive := make(map[int]bool, hyp.NumStates-1)
		for t := 0; t < hyp.NumStates; t++ {
			if t != s {
				alive[t] = true
			}
		}
		var set [][]int
		for i, word := range w {
			if len(alive) == 0 {
				break
			}
			split := false
			mine := sigTab[s][i]
			for t := range alive {
				if sigTab[t][i] != mine {
					delete(alive, t)
					split = true
				}
			}
			if split {
				set = append(set, word)
			}
		}
		if len(set) == 0 {
			set = w
		}
		out[s] = set
	}
	return out
}

// randomReduced returns the minimal machine of a random Mealy machine.
func randomReduced(rng *rand.Rand, states, inputs, outputs int) *mealy.Machine {
	m := mealy.New(states, inputs)
	for s := 0; s < states; s++ {
		for a := 0; a < inputs; a++ {
			m.Next[s][a] = rng.Intn(states)
			m.Out[s][a] = rng.Intn(outputs)
		}
	}
	return m.Minimize()
}

// TestIdentificationSetsMatchMapReference: the bitset greedy cover returns
// the map-based reference's sets word for word, on random reduced machines
// (some past 64 states, so the bitset spans several words) and on the
// single-state machine, whose set falls back to W.
func TestIdentificationSetsMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var machines []*mealy.Machine
	for i := 0; i < 60; i++ {
		machines = append(machines, randomReduced(rng, 1+rng.Intn(150), 1+rng.Intn(5), 2+rng.Intn(2)))
	}
	machines = append(machines, mealy.New(1, 3))
	for i, m := range machines {
		t.Run(fmt.Sprintf("%d/%dstates", i, m.NumStates), func(t *testing.T) {
			w := m.MinimalCharacterizingSet()
			got, want := identificationSets(m, w), identificationSetsMap(m, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bitset sets differ from the map reference:\n got %v\nwant %v", got, want)
			}
			if m.NumStates == 1 && !reflect.DeepEqual(got[0], w) {
				t.Fatalf("single-state set %v, want W %v", got[0], w)
			}
		})
	}
}
