package hw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// goldenTraceDigests pins the observable behaviour of every CPU model under
// a seeded operation mix: every load latency, sampled ResidentLevel values,
// and the final TSC, PSEL and load count. Any change to the simulated
// silicon — a latency, an RNG draw, a victim — changes them, so a change to
// how the hierarchy is represented must leave them as they are.
var goldenTraceDigests = map[string]string{
	"Haswell":   "2276fa312b2daece29d40bf8eb28c5d4825a7b323d0467860b2ac29f45b5387a",
	"Skylake":   "df63d7a78bda610e662dfe61e289ade99e957c816c60c07eb5540083eb667033",
	"Kaby Lake": "96712681a53128894ef7254b5a7b98ea767c2fc775c439c36194afc024be09d9",
}

// goldenOps is the length of each model's trace.
const goldenOps = 200000

// goldenPool builds the trace's address pool: overfilled L3 sets of every
// leader kind (evictions, back-invalidation, PSEL traffic), plus a block of
// lines that conflict in L1 and L2 only.
func goldenPool(c *CPU) []Addr {
	assoc := c.Config().L3.Assoc
	var pool []Addr
	for _, kind := range []LeaderKind{Follower, LeaderThrashable, LeaderResistant} {
		if !c.Config().L3Adaptive && kind != Follower {
			continue
		}
		pool = append(pool, congruentLeader(c, kind, assoc+6)...)
	}
	base := c.AllocBuffer(64)
	for i := 0; i < 64*PageSize/LineSize; i += 3 {
		pool = append(pool, base+Addr(i)*LineSize)
	}
	return pool
}

// newCPUSim is NewCPU with an explicit policy representation: interpreted
// skips the compiled kernel before any traffic, so every CPU of a test leg
// is configured identically.
func newCPUSim(cfg CPUConfig, seed int64, interpreted bool) *CPU {
	c := NewCPU(cfg, seed)
	if interpreted {
		c.SetInterpreted(true)
	}
	return c
}

// goldenTrace runs the seeded mix on one CPU and returns its digest.
func goldenTrace(cfg CPUConfig, interpreted bool) string {
	c := newCPUSim(cfg, 7, interpreted)
	c.SetLowNoise(true)
	pool := goldenPool(c)
	stream := c.AllocBuffer(256)
	var streamPos Addr
	rng := rand.New(rand.NewSource(11))
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	prefetch, lowNoise := false, true
	for i := 0; i < goldenOps; i++ {
		va := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(10000); {
		case r < 7000:
			put(math.Float64bits(c.Load(va)))
		case r < 8000:
			c.CLFlush(va)
		case r < 8500:
			// A short stream run: consecutive lines train the prefetcher.
			for k := 0; k < 4; k++ {
				put(math.Float64bits(c.Load(stream + streamPos*LineSize)))
				streamPos = (streamPos + 1) % (256 * PageSize / LineSize)
			}
		case r < 8505:
			c.WBInvd()
		case r < 8510:
			if cfg.SupportsCAT {
				ways := 0
				if w := rng.Intn(cfg.L3.Assoc); w >= 2 && w%4 == 0 {
					ways = w
				}
				if err := c.SetCATWays(ways); err != nil {
					panic(err)
				}
			}
		case r < 8530:
			prefetch = !prefetch
			c.SetPrefetcher(prefetch)
		case r < 8540:
			lowNoise = !lowNoise
			c.SetLowNoise(lowNoise)
		default:
			put(uint64(int64(c.ResidentLevel(va))))
		}
	}
	put(c.RDTSC())
	put(uint64(c.PSEL()))
	put(c.LoadCount())
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraceBitIdentical replays the seeded mix on every model, on the
// compiled kernel and interpreted, and requires the pinned digests.
func TestGoldenTraceBitIdentical(t *testing.T) {
	for _, cfg := range Models() {
		want, ok := goldenTraceDigests[cfg.Arch]
		if !ok {
			t.Fatalf("no golden digest for %s", cfg.Arch)
		}
		for _, interpreted := range []bool{false, true} {
			if got := goldenTrace(cfg, interpreted); got != want {
				t.Errorf("%s (interpreted=%v): trace digest %s, want %s", cfg.Arch, interpreted, got, want)
			}
		}
	}
}
