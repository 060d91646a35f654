package qstore

// Arena-backed child storage. Nodes no longer own a heap-allocated child
// slice each; a shard keeps one flat []int32 arena per block-size class
// and every node records an offset into its class. Handles (node ids and
// child offsets) are stable across arena growth — growth appends, never
// moves — so Val/Child pointers into the node arena obey the same
// invalidation rules as before.
//
// A block freed when a dynamic node outgrows its class is returned to a
// freebits-style two-level bitmap (bits + summary, after bnclabs/gostore's
// malloc) and handed back by the next allocation of that class, so nodes
// growing through the size classes reuse each other's outgrown blocks
// instead of leaving them stranded in the arena.
//
// Fixed-degree stores have exactly one class (block = full fanout).
// Dynamic stores round each child array up to a power of two; a node's
// class is derivable from its child count, so the node itself only carries
// (offset, count).

import (
	"math/bits"
	"slices"
)

// freebits is a two-level bitmap of free block indices within one class:
// bits holds one bit per block ever appended (1 = free), summary one bit
// per bits word (1 = word has any free block). Blocks enter allocated and
// are only listed when freed.
type freebits struct {
	bits    []uint64
	summary []uint64
	nblocks int32
}

// grow accounts for one freshly appended (allocated) block.
func (f *freebits) grow() {
	f.nblocks++
	if int(f.nblocks+63)>>6 > len(f.bits) {
		f.bits = append(f.bits, 0)
	}
	if (len(f.bits)+63)>>6 > len(f.summary) {
		f.summary = append(f.summary, 0)
	}
}

// put returns block i to the free set.
func (f *freebits) put(i int32) {
	w := i >> 6
	f.bits[w] |= 1 << uint(i&63)
	f.summary[w>>6] |= 1 << uint(w&63)
}

// take removes and returns the lowest free block, or -1.
func (f *freebits) take() int32 {
	for si, sw := range f.summary {
		if sw == 0 {
			continue
		}
		w := si<<6 + bits.TrailingZeros64(sw)
		b := bits.TrailingZeros64(f.bits[w])
		f.bits[w] &^= 1 << uint(b)
		if f.bits[w] == 0 {
			f.summary[si] &^= 1 << uint(w&63)
		}
		return int32(w<<6 + b)
	}
	return -1
}

// classOf returns the size class of a child array holding length entries:
// class 0 for fixed-degree shards, ceil(log2(length)) otherwise. Growing a
// child count within its class capacity never changes the class, so
// (offset, length) alone locates a block.
func (sh *Shard[K, V]) classOf(length int32) int {
	if sh.st.degree != 0 {
		return 0
	}
	return bits.Len32(uint32(length - 1))
}

// blockSize returns the entry count of class c's blocks.
func (sh *Shard[K, V]) blockSize(c int) int32 {
	if sh.st.degree != 0 {
		return int32(sh.st.degree)
	}
	return 1 << uint(c)
}

// childSlice returns node n's child entries (nil when none) as a view into
// the shard arena, valid until the block is freed.
func (sh *Shard[K, V]) childSlice(n int32) []int32 {
	nd := &sh.nodes[n]
	if nd.childOff < 0 {
		return nil
	}
	c := sh.classOf(nd.childLen)
	return sh.arenas[c][nd.childOff : nd.childOff+nd.childLen]
}

// allocBlock returns the offset of a -1-initialized block of class c,
// reusing a freed block when the bitmap has one and otherwise growing the
// class arena by one block in a single step.
func (sh *Shard[K, V]) allocBlock(c int) int32 {
	for len(sh.arenas) <= c {
		sh.arenas = append(sh.arenas, nil)
		sh.free = append(sh.free, freebits{})
	}
	size := sh.blockSize(c)
	off := int32(len(sh.arenas[c]))
	if idx := sh.free[c].take(); idx >= 0 {
		off = idx * size
	} else {
		sh.arenas[c] = grow(sh.arenas[c], int(size))[:off+size]
		sh.free[c].grow()
	}
	blk := sh.arenas[c][off : off+size]
	for i := range blk {
		blk[i] = -1
	}
	return off
}

// grow returns s with room for n more elements. When s must move, its
// capacity at least doubles: append grows large slices by about 1.25x, and
// a trie of millions of nodes would copy itself several times over.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		return slices.Grow(s, len(s)+n)
	}
	return s
}

// freeBlock returns the block at off of class c to the bitmap.
func (sh *Shard[K, V]) freeBlock(c int, off int32) {
	sh.free[c].put(off / sh.blockSize(c))
}

// ArenaInts returns the shard's total arena capacity in int32 entries
// (free and allocated alike) — the figure block-reuse checks watch.
func (sh *Shard[K, V]) ArenaInts() int {
	total := 0
	for _, a := range sh.arenas {
		total += len(a)
	}
	return total
}
