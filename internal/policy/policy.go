// Package policy implements deterministic cache replacement policies as
// Mealy machines, following Definition 2.1 of the CacheQuery paper.
//
// A replacement policy of associativity n accepts the inputs Ln(0), ...,
// Ln(n-1) (a hit on cache line i) and Evct (a request to free a line). On
// Ln(i) it outputs ⊥ and only updates its control state; on Evct it outputs
// the index of the line to be freed. The package provides an imperative
// interface (OnHit/OnMiss) plus the canonical state encoding (StateKey) that
// lets internal/mealy extract the explicit Mealy machine by exhaustive
// state-space exploration.
//
// The zoo covers every policy used in the paper's evaluation: FIFO, LRU,
// PLRU, MRU, LIP, SRRIP-HP, SRRIP-FP (§6), and the two previously
// undocumented Intel policies New1 and New2 (§8), plus BIP and BRRIP which
// the simulated adaptive last-level cache (Appendix B) uses as its
// thrash-resistant dueling candidates.
package policy

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Bottom is the policy output ⊥ produced by every Ln(i) input.
const Bottom = -1

// Policy is a deterministic replacement policy for a single cache set.
//
// Implementations must be deterministic: two policies with equal StateKey
// react identically to every input. Clone must return an independent deep
// copy, and Reset must restore the initial control state cs0.
type Policy interface {
	// Name returns the canonical policy name, e.g. "LRU" or "SRRIP-HP".
	Name() string
	// Assoc returns the associativity n the policy instance was built for.
	Assoc() int
	// OnHit processes input Ln(line). The output is always ⊥.
	OnHit(line int)
	// OnMiss processes input Evct and returns the index of the freed line.
	OnMiss() int
	// Reset restores the initial control state cs0.
	Reset()
	// StateKey returns a canonical encoding of the current control state.
	StateKey() string
	// Clone returns an independent copy in the same control state.
	Clone() Policy
}

// EvctInput returns the integer encoding of the Evct input for associativity
// n. Inputs 0..n-1 encode Ln(0)..Ln(n-1); input n encodes Evct.
func EvctInput(n int) int { return n }

// NumInputs returns the size of the policy input alphabet for associativity n.
func NumInputs(n int) int { return n + 1 }

// InputString renders an encoded policy input (see EvctInput) for display.
func InputString(n, in int) string {
	if in == n {
		return "Evct"
	}
	return fmt.Sprintf("Ln(%d)", in)
}

// OutputString renders an encoded policy output for display.
func OutputString(out int) string {
	if out == Bottom {
		return "⊥"
	}
	return fmt.Sprintf("%d", out)
}

// Apply feeds one encoded input to p and returns the encoded output.
func Apply(p Policy, in int) int {
	if in == p.Assoc() {
		return p.OnMiss()
	}
	p.OnHit(in)
	return Bottom
}

// Factory builds a policy instance of a given associativity.
type Factory func(assoc int) (Policy, error)

var registry = map[string]Factory{}

// Register adds a named policy constructor to the global registry. It is
// called from the init functions of the concrete policies and panics on
// duplicate names; names are case-insensitive.
func Register(name string, f Factory) {
	key := strings.ToLower(name)
	if _, dup := registry[key]; dup {
		panic("policy: duplicate registration of " + name)
	}
	registry[key] = f
}

// New builds a registered policy by name (case-insensitive).
func New(name string, assoc int) (Policy, error) {
	f, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	if assoc < 1 {
		return nil, fmt.Errorf("policy: associativity must be >= 1, got %d", assoc)
	}
	return f(assoc)
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(name string, assoc int) Policy {
	p, err := New(name, assoc)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the sorted list of registered policy names.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StatePacker is implemented by policies whose control state packs into a
// uint64. Compile searches such a policy on its packed states: the packed
// value is the state's identity instead of its StateKey string, and one
// scratch instance unpacked to each state in turn replaces a Clone per
// transition.
//
// PackState returns the packed state and true, or false when the state does
// not fit in 64 bits. Whether a state fits depends only on the instance's
// fixed parameters (associativity, throttle), so either every reachable
// state packs or none does, and two states pack equal exactly when their
// StateKeys are equal. UnpackState(k) puts the instance into the state that
// packed to k.
type StatePacker interface {
	PackState() (uint64, bool)
	UnpackState(k uint64)
}

// PackAges packs ages at width bits each, line 0 in the low bits. It
// reports false when the ages need more than 64 bits or an age does not fit
// the width.
func PackAges(ages []int, width int) (uint64, bool) {
	if len(ages)*width > 64 {
		return 0, false
	}
	var k uint64
	for i, a := range ages {
		if a < 0 || a >= 1<<width {
			return 0, false
		}
		k |= uint64(a) << (i * width)
	}
	return k, true
}

// UnpackAges is the inverse of PackAges: it fills ages from k at width bits
// each.
func UnpackAges(ages []int, k uint64, width int) {
	mask := uint64(1)<<width - 1
	for i := range ages {
		ages[i] = int(k >> (i * width) & mask)
	}
}

// AgesKey encodes an int slice control state canonically, e.g. "[3 1 0 2]"
// (the same text fmt.Sprint prints for the slice).
func AgesKey(ages []int) string {
	var buf [64]byte
	return string(appendAges(buf[:0], ages))
}

func appendAges(dst []byte, ages []int) []byte {
	dst = append(dst, '[')
	for i, a := range ages {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return append(dst, ']')
}

// countedKey encodes an ages state with a throttle counter, e.g.
// "[3 1 0 2] c=5".
func countedKey(ages []int, ctr int) string {
	var buf [64]byte
	b := appendAges(buf[:0], ages)
	return string(strconv.AppendInt(append(b, " c="...), int64(ctr), 10))
}

// packCounted packs an ages state at width bits per age with a counter in
// [0, epsilon) above it.
func packCounted(ages []int, width, ctr, epsilon int) (uint64, bool) {
	shift := len(ages) * width
	if shift+bits.Len(uint(epsilon-1)) > 64 {
		return 0, false
	}
	k, ok := PackAges(ages, width)
	return k | uint64(ctr)<<shift, ok
}

// unpackCounted is the inverse of packCounted: it fills ages and returns
// the counter.
func unpackCounted(ages []int, width int, k uint64) int {
	UnpackAges(ages, k, width)
	return int(k >> (len(ages) * width))
}

func checkLine(n, line int) {
	if line < 0 || line >= n {
		panic(fmt.Sprintf("policy: line %d out of range for associativity %d", line, n))
	}
}
