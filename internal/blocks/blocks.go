// Package blocks defines the ordered universe of abstract memory blocks used
// throughout the CacheQuery pipeline.
//
// Abstract blocks are the inputs of the cache model (Definition 2.3 of the
// paper): an infinite, totally ordered set of names A, B, C, ..., Z, A1, B1,
// and so on. The MemBlockLang macros '@' and '_' expand to the first
// associativity-many blocks in this order, and Polca draws fresh blocks from
// the same order when it needs a block that is not currently cached.
package blocks

import (
	"fmt"
	"strconv"
	"strings"
)

// Block is the name of an abstract memory block, e.g. "A" or "C2".
type Block = string

// Name returns the i-th block name (0-based): A..Z, then A1..Z1, A2..Z2, ...
func Name(i int) Block {
	if i < 0 {
		panic(fmt.Sprintf("blocks: negative block index %d", i))
	}
	letter := byte('A' + i%26)
	round := i / 26
	if round == 0 {
		return string(letter)
	}
	return string(letter) + strconv.Itoa(round)
}

// MaxIndex bounds the dense block universe. The universe is conceptually
// infinite, but indices double as hot-path integer keys (trie edges,
// result-store codes), so names beyond the bound are rejected as malformed —
// small enough that id*3+tag arithmetic can never overflow an int32.
const MaxIndex = 1<<25 - 1

// Index returns the 0-based position of a block name in the universe order,
// inverting Name. It reports an error for malformed names: only the
// canonical spelling is accepted ("A1", not "A01" or "A+1" — those would
// silently alias the same block), and only names up to MaxIndex.
func Index(b Block) (int, error) {
	if b == "" {
		return 0, fmt.Errorf("blocks: empty block name")
	}
	letter := b[0]
	if letter < 'A' || letter > 'Z' {
		return 0, fmt.Errorf("blocks: block name %q must start with an upper-case letter", b)
	}
	idx := int(letter - 'A')
	if len(b) == 1 {
		return idx, nil
	}
	round, err := strconv.Atoi(b[1:])
	if err != nil || round <= 0 || strconv.Itoa(round) != b[1:] {
		return 0, fmt.Errorf("blocks: malformed block name %q", b)
	}
	// Bound the round before multiplying: round*26 on a huge round would
	// overflow int and slip past the MaxIndex check as a negative id.
	if round > (MaxIndex-idx)/26 {
		return 0, fmt.Errorf("blocks: block name %q beyond the supported universe of %d blocks", b, MaxIndex+1)
	}
	return round*26 + idx, nil
}

// nameTab caches the first block names so hot paths that address blocks by
// dense universe index (the trie query engine) never re-format a name.
var nameTab = func() []Block {
	t := make([]Block, 256)
	for i := range t {
		t[i] = Name(i)
	}
	return t
}()

// Interned returns Name(i) served from a precomputed table for small i —
// the allocation-free variant used when blocks are handled as dense integer
// ids and a name is needed only at the prober boundary.
func Interned(i int) Block {
	if i >= 0 && i < len(nameTab) {
		return nameTab[i]
	}
	return Name(i)
}

// Ordered returns the first n block names in universe order.
func Ordered(n int) []Block {
	out := make([]Block, n)
	for i := range out {
		out[i] = Name(i)
	}
	return out
}

// Fresh returns the first block in universe order that does not occur in
// taken: a block that is guaranteed to miss in a cache holding taken.
func Fresh(taken []Block) Block {
	in := make(map[Block]bool, len(taken))
	for _, b := range taken {
		if b != "" {
			in[b] = true
		}
	}
	for i := 0; ; i++ {
		if b := Name(i); !in[b] {
			return b
		}
	}
}

// Join renders a block sequence as a space-separated query string.
func Join(bs []Block) string { return strings.Join(bs, " ") }

// IsValid reports whether b is a well-formed block name.
func IsValid(b Block) bool {
	_, err := Index(b)
	return err == nil
}
