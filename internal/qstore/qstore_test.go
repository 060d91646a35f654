package qstore

import (
	"reflect"
	"testing"
)

// countSet returns the number of recorded values in st.
func countSet[K Key, V any](st *Store[K, V]) int {
	total := 0
	for _, nd := range st.nodes {
		if nd.set {
			total++
		}
	}
	return total
}

func TestFixedDegreePrefixStore(t *testing.T) {
	st := New[int, int](3)
	words := Enumerate(3, 4)[1:]
	for i, w := range words {
		if !st.inRange(w) {
			t.Fatalf("word %v reported out of range", w)
		}
		if fresh := st.Set(w, i); !fresh {
			t.Fatalf("word %v not fresh on first set", w)
		}
	}
	for i, w := range words {
		got, ok := st.Get(w)
		if !ok || got != i {
			t.Fatalf("word %v: got (%d, %v), want (%d, true)", w, got, ok, i)
		}
	}
	if _, ok := st.Get([]int{2, 2, 2, 2, 2}); ok {
		t.Fatal("absent word reported present")
	}
	if got := countSet(st); got != len(words) {
		t.Fatalf("countSet = %d, want %d", got, len(words))
	}
	if st.inRange([]int{0, 3}) || st.inRange([]int{-1}) {
		t.Fatal("out-of-range symbols accepted")
	}
	// Prefix relationship: every prefix of a recorded word is a node on
	// its walk from the root.
	n := int32(0)
	for _, a := range []int{2, 1, 0, 2} {
		if n = st.Child(n, a); n < 0 {
			t.Fatalf("prefix walk broke at symbol %d", a)
		}
		if !st.Has(n) {
			t.Fatal("prefix node has no recorded value")
		}
	}
}

func TestDynamicEdgesStayCompact(t *testing.T) {
	// One legitimately huge raw label must not amplify child arrays: the
	// dense remap sizes edges by distinct labels seen, not by magnitude.
	st := New[int32, struct{}](0)
	big := int32(26_000_000)
	st.Ensure([]int32{0, big, 3, big, 7})
	if w := len(st.edges); w != 4 {
		t.Fatalf("dense remap holds %d edges, want 4", w)
	}
	for n := 0; n < st.NodeCount(); n++ {
		if got := len(st.childSlice(int32(n))); got > 4 {
			t.Fatalf("node %d has %d child slots for 4 distinct edges", n, got)
		}
	}
}

func TestEpochMarks(t *testing.T) {
	st := New[int, struct{}](2)
	words := Enumerate(2, 3)[1:]
	for _, w := range words {
		if !st.InsertMark(w) {
			t.Fatalf("first mark of %v not fresh", w)
		}
	}
	for _, w := range words {
		if st.InsertMark(w) {
			t.Fatalf("second mark of %v fresh", w)
		}
	}
	st.ResetMarks()
	for _, w := range words {
		if !st.InsertMark(w) {
			t.Fatalf("mark of %v not fresh after reset", w)
		}
	}
}

func TestWordsHelpers(t *testing.T) {
	if got := Concat([]int{1, 2}, nil, []int{3}); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Concat = %v", got)
	}
	words := Enumerate(2, 2)
	if len(words) != 1+2+4 {
		t.Fatalf("Enumerate(2,2) returned %d words", len(words))
	}
	if !reflect.DeepEqual(words[0], []int{}) || !reflect.DeepEqual(words[len(words)-1], []int{1, 1}) {
		t.Fatalf("Enumerate order unexpected: %v", words)
	}
}
