package intern

import (
	"math/rand"
	"testing"
)

func TestWordInjective(t *testing.T) {
	it := New()
	words := [][]int{
		{}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {-1, 0}, {0, -1},
		{5, 5, 5}, {5, 5}, {1 << 30}, {1 << 30, 0},
	}
	seen := make(map[int32]int)
	for i, w := range words {
		id := it.Word(w)
		if j, dup := seen[id]; dup {
			t.Fatalf("words %v and %v interned to the same id %d", words[j], w, id)
		}
		seen[id] = i
	}
	// Re-interning yields the same ids.
	for i, w := range words {
		if id := it.Word(w); seen[id] != i {
			t.Fatalf("re-interning %v changed its id", w)
		}
	}
}

func TestAppendMatchesWord(t *testing.T) {
	it := New()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		w := make([]int, rng.Intn(8))
		for i := range w {
			w[i] = rng.Intn(5) - 1
		}
		acc := Empty
		for _, v := range w {
			acc = it.Append(acc, v)
		}
		if acc != it.Word(w) {
			t.Fatalf("fold of %v diverged from Word", w)
		}
	}
}
