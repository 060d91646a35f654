package qstore

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestFixedDegreePrefixStore(t *testing.T) {
	st := New[int, int](Options{Degree: 3, Stripes: 3})
	words := Enumerate(3, 4)[1:]
	for i, w := range words {
		if !st.InRange(w) {
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
	if st.CountSet() != len(words) {
		t.Fatalf("CountSet = %d, want %d", st.CountSet(), len(words))
	}
	if st.InRange([]int{0, 3}) || st.InRange([]int{-1}) {
		t.Fatal("out-of-range symbols accepted")
	}
	// Prefix relationship: all prefixes of a word share its shard.
	w := []int{2, 1, 0, 2}
	sh := st.Acquire(w)
	defer sh.Release()
	n := int32(0)
	for _, a := range w {
		if n = sh.Child(n, a); n < 0 {
			t.Fatalf("prefix walk broke at symbol %d", a)
		}
		if !sh.Has(n) {
			t.Fatal("prefix node has no recorded value")
		}
	}
}

func TestDynamicEdgesStayCompact(t *testing.T) {
	// One legitimately huge raw label must not amplify child arrays: the
	// dense remap sizes edges by distinct labels seen, not by magnitude.
	st := New[int32, struct{}](Options{Degree: 0, Stripes: 1})
	big := int32(26_000_000)
	sh := st.Acquire(nil)
	sh.Ensure([]int32{0, big, 3, big, 7})
	if w := len(sh.edges); w != 4 {
		t.Fatalf("dense remap holds %d edges, want 4", w)
	}
	for n := 0; n < sh.Len(); n++ {
		if got := len(sh.childSlice(int32(n))); got > 4 {
			t.Fatalf("node %d has %d child slots for 4 distinct edges", n, got)
		}
	}
	sh.Release()
}

func TestEpochMarks(t *testing.T) {
	st := New[int, struct{}](Options{Degree: 2, Stripes: 2})
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

func TestRouteDeterministicAndPrefixConsistent(t *testing.T) {
	st := New[int32, string](Options{Degree: 0, Stripes: 7})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		key := make([]int32, 1+rng.Intn(8))
		for j := range key {
			key[j] = int32(rng.Intn(5))
		}
		if st.route(key) != st.route(key) {
			t.Fatal("routing not deterministic")
		}
		ext := append(append([]int32(nil), key...), 1, 2, 3, 4)
		if st.route(key) != st.route(ext) || st.route(key) != st.route(key[:1]) {
			t.Fatal("keys sharing the routing prefix routed to different shards")
		}
	}
}

func TestConcurrentStripedStore(t *testing.T) {
	st := New[int, int](Options{Degree: 5, Stripes: 5, Sync: true})
	words := Enumerate(5, 4)[1:]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, w := range words {
				if g%2 == 0 {
					st.Set(w, i)
				} else if v, ok := st.Get(w); ok && v != i {
					t.Errorf("word %v: read %d, want %d", w, v, i)
				}
			}
		}(g)
	}
	wg.Wait()
	for i, w := range words {
		if v, ok := st.Get(w); !ok || v != i {
			t.Fatalf("word %v: got (%d, %v) after concurrent writes", w, v, ok)
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
