package mealy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/intern"
	"repro/internal/policy"
)

// characterizingSetReference is the map-keyed construction the block
// refinement of MinimalCharacterizingSet replaced: every state's signature
// is refolded for each new word, and the states are regrouped from scratch
// each round. It is the reference W must equal word for word.
func characterizingSetReference(mm *Machine) [][]int {
	if mm.NumStates <= 1 {
		return [][]int{{0}}
	}
	var w [][]int
	it := intern.New()
	sigOf := make([]int32, mm.NumStates)
	for {
		classes := make(map[int32][]int)
		for s := 0; s < mm.NumStates; s++ {
			classes[sigOf[s]] = append(classes[sigOf[s]], s)
		}
		if len(classes) == mm.NumStates {
			return w
		}
		for s := 0; s < mm.NumStates; s++ {
			states := classes[sigOf[s]]
			if len(states) < 2 {
				continue
			}
			d := distinguishingWordReference(mm, states[0], states[1])
			w = append(w, d)
			for t := 0; t < mm.NumStates; t++ {
				sigOf[t] = it.Pair(sigOf[t], it.Word(mm.RunFrom(t, d)))
			}
			break
		}
	}
}

// TestMinimalCharacterizingSetMatchesReference: block refinement yields the
// reference construction's W word for word, on the policy machines and on
// random minimal machines of up to 150 states.
func TestMinimalCharacterizingSetMatchesReference(t *testing.T) {
	var machines []*Machine
	for _, name := range []string{"FIFO", "LRU", "PLRU", "MRU", "SRRIP-HP", "SRRIP-FP", "New1", "New2"} {
		m, err := FromPolicy(policy.MustNew(name, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m.Minimize())
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		states, inputs := 1+rng.Intn(150), 1+rng.Intn(5)
		m := New(states, inputs)
		for s := range m.Next {
			for a := range m.Next[s] {
				m.Next[s][a], m.Out[s][a] = rng.Intn(states), rng.Intn(2+rng.Intn(2))
			}
		}
		machines = append(machines, m.Minimize())
	}
	for i, mm := range machines {
		t.Run(fmt.Sprintf("%d/%dstates", i, mm.NumStates), func(t *testing.T) {
			if got, want := mm.MinimalCharacterizingSet(), characterizingSetReference(mm); !reflect.DeepEqual(got, want) {
				t.Fatalf("W = %v, reference %v", got, want)
			}
		})
	}
}

// distinguishingWordReference is the map-keyed pair search distinguish
// replaced.
func distinguishingWordReference(m *Machine, s, t int) []int {
	type pair struct{ a, b int }
	type entry struct {
		parent int
		in     int
	}
	start := pair{s, t}
	seen := map[pair]int{start: 0}
	order := []pair{start}
	meta := []entry{{parent: -1}}
	for head := 0; head < len(order); head++ {
		cur := order[head]
		for a := 0; a < m.NumInputs; a++ {
			na, oa := m.Step(cur.a, a)
			nb, ob := m.Step(cur.b, a)
			if oa != ob {
				var rev []int
				rev = append(rev, a)
				for i := head; meta[i].parent != -1; i = meta[i].parent {
					rev = append(rev, meta[i].in)
				}
				word := make([]int, len(rev))
				for i := range rev {
					word[i] = rev[len(rev)-1-i]
				}
				return word
			}
			nxt := pair{na, nb}
			if _, ok := seen[nxt]; !ok {
				seen[nxt] = len(order)
				order = append(order, nxt)
				meta = append(meta, entry{parent: head, in: a})
			}
		}
	}
	return nil
}
