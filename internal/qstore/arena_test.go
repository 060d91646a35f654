package qstore

import "testing"

// Node handles and recorded values must survive arbitrary arena growth:
// blocks are appended or reallocated per node, never moved under a live id.
func TestArenaHandleStabilityAcrossGrowth(t *testing.T) {
	st := New[int32, int](Options{Degree: 0, Stripes: 1})
	sh := st.Acquire(nil)
	defer sh.Release()
	// Interleave: pin a handle per key, then keep growing other nodes'
	// child arrays (forcing class reallocations) and re-check every pin.
	type pin struct {
		key []int32
		n   int32
	}
	var pins []pin
	for i := int32(0); i < 40; i++ {
		key := []int32{i % 4, i, i * 7}
		n := sh.Ensure(key)
		sh.Put(n, int(i))
		pins = append(pins, pin{key: key, n: n})
		// Widen an early node's fanout step by step so its child block hops
		// through size classes 1, 2, 4, 8, ... while the pins stay live.
		sh.Ensure([]int32{0, 1000 + i})
		for _, p := range pins {
			if got := sh.Find(p.key); got != p.n {
				t.Fatalf("after growth %d, Find(%v) = node %d, want %d", i, p.key, got, p.n)
			}
			if !sh.Has(p.n) || *sh.Val(p.n) != int(p.key[1]) {
				t.Fatalf("after growth %d, node %d lost its value", i, p.n)
			}
		}
	}
}

func TestDynamicClassReallocationFreesOldBlocks(t *testing.T) {
	// A dynamic node growing through size classes must hand its outgrown
	// blocks back: a second node grown through the same classes reuses
	// them, so its top-class block is the only new arena capacity.
	st := New[int32, struct{}](Options{Degree: 0, Stripes: 1})
	sh := st.Acquire(nil)
	defer sh.Release()
	grow := func(prefix ...int32) {
		for e := int32(0); e < 33; e++ { // classes 1<<0 .. 1<<6
			sh.Ensure(append(prefix, e))
		}
	}
	grow()
	cap1 := sh.ArenaInts()
	grow(0)
	if got, want := sh.ArenaInts()-cap1, int(sh.blockSize(6)); got != want {
		t.Fatalf("second node added %d arena entries, want %d (its class-6 block only)", got, want)
	}
}
