package qstore

import "testing"

// Node handles and recorded values must survive arbitrary arena growth:
// blocks are appended or reallocated per node, never moved under a live id.
func TestArenaHandleStabilityAcrossGrowth(t *testing.T) {
	st := New[int32, int](0)
	// Interleave: pin a handle per key, then keep growing other nodes'
	// child arrays (forcing class reallocations) and re-check every pin.
	type pin struct {
		key []int32
		n   int32
	}
	var pins []pin
	for i := int32(0); i < 40; i++ {
		key := []int32{i % 4, i, i * 7}
		st.Set(key, int(i))
		n := st.Find(key)
		pins = append(pins, pin{key: key, n: n})
		// Widen an early node's fanout step by step so its child block hops
		// through size classes 1, 2, 4, 8, ... while the pins stay live.
		st.Ensure([]int32{0, 1000 + i})
		for _, p := range pins {
			if got := st.Find(p.key); got != p.n {
				t.Fatalf("after growth %d, Find(%v) = node %d, want %d", i, p.key, got, p.n)
			}
			if !st.Has(p.n) || *st.Val(p.n) != int(p.key[1]) {
				t.Fatalf("after growth %d, node %d lost its value", i, p.n)
			}
		}
	}
}

func TestDynamicClassReallocationFreesOldBlocks(t *testing.T) {
	// A dynamic node growing through size classes must hand its outgrown
	// blocks back: a second node grown through the same classes reuses
	// them, so its top-class block is the only new arena capacity.
	st := New[int32, struct{}](0)
	grow := func(prefix ...int32) {
		for e := int32(0); e < 33; e++ { // classes 1<<0 .. 1<<6
			st.Ensure(append(prefix, e))
		}
	}
	grow()
	cap1 := st.arenaInts()
	grow(0)
	if got, want := st.arenaInts()-cap1, int(st.blockSize(6)); got != want {
		t.Fatalf("second node added %d arena entries, want %d (its class-6 block only)", got, want)
	}
}

// TestAllocBlockReadsMinusOne: a block of any size class reads all -1 when
// handed out, whether freshly appended or reused from the freebits bitmap
// after its previous owner dirtied it. Each fresh allocation grows the
// arena by exactly one block; a reuse does not grow it.
func TestAllocBlockReadsMinusOne(t *testing.T) {
	for _, tc := range []struct {
		name    string
		degree  int
		classes int
	}{{"fixed", 5, 1}, {"dynamic", 0, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			st := New[int32, struct{}](tc.degree)
			alloc := func(c int, grow int) int32 {
				t.Helper()
				before := st.arenaInts()
				off := st.allocBlock(c)
				if got := st.arenaInts() - before; got != grow {
					t.Fatalf("class %d: allocation grew the arena by %d entries, want %d", c, got, grow)
				}
				blk := st.arenas[c][off : off+st.blockSize(c)]
				for i, v := range blk {
					if v != -1 {
						t.Fatalf("class %d block at %d: entry %d reads %d, want -1", c, off, i, v)
					}
					blk[i] = int32(i) // dirty it for the reuse check
				}
				return off
			}
			for c := 0; c < tc.classes; c++ {
				size := int(st.blockSize(c))
				var offs []int32
				for i := 0; i < 3; i++ {
					offs = append(offs, alloc(c, size))
				}
				st.freeBlock(c, offs[1])
				st.freeBlock(c, offs[0])
				for _, want := range []int32{offs[0], offs[1]} {
					if off := alloc(c, 0); off != want {
						t.Fatalf("class %d: reused block at %d, want the lowest free block at %d", c, off, want)
					}
				}
				alloc(c, size)
			}
		})
	}
}
