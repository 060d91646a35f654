package cachequery

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/hw"
	"repro/internal/mbl"
)

// backendTraceDigests pin what the backend makes the simulated Skylake do
// for one target per level: the calibrated threshold, every voted outcome
// of a seeded query mix, and the CPU's final TSC and load count.
// Provisioning, calibration, filtering and pool flushes must replay the
// same loads and clflushes in the same order however the backend holds
// its addresses.
var backendTraceDigests = map[string]string{
	"l1_sets/0":    "3af72458ffd864317871e37b182082167443eb808f241b3cc55142d5bd6f7d3a",
	"l2_sets/33":   "2d39f5467ad8ef9dc2c70155868eca16fad6129ac61c93286c8bbd7c68bcefa0",
	"l3_sets/1.96": "071ea235dc44ec469eb3617884f5288c7c32e973faccd4fff52d3a66cb02657b",
}

// TestBackendTraceBitIdentical replays the seeded query mix on each target.
func TestBackendTraceBitIdentical(t *testing.T) {
	for _, tgt := range []Target{
		{Level: hw.L1, Set: 0},
		{Level: hw.L2, Set: 33},
		{Level: hw.L3, Slice: 1, Set: 96},
	} {
		want, ok := backendTraceDigests[tgt.String()]
		if !ok {
			t.Fatalf("no golden digest for %s", tgt)
		}
		if got := backendTrace(t, tgt); got != want {
			t.Errorf("%s: backend trace digest %s, want %s", tgt, got, want)
		}
	}
}

func backendTrace(t *testing.T, tgt Target) string {
	t.Helper()
	cpu := hw.NewCPU(hw.Skylake(), 21)
	be, err := NewBackend(cpu, tgt, DefaultBackendOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(be.Threshold()))
	rng := rand.New(rand.NewSource(int64(tgt.Level)*1000 + int64(tgt.Set)))
	var hits, misses int
	for i := 0; i < 300; i++ {
		q := make(mbl.Query, 1+rng.Intn(14))
		for j := range q {
			q[j].Block = blocks.Interned(rng.Intn(18))
			switch r := rng.Intn(20); {
			case r < 4:
				q[j].Tag = mbl.TagProfile
			case r < 5:
				q[j].Tag = mbl.TagFlush
			}
		}
		ocs, err := be.Run(context.Background(), q, 3, rng.Intn(4) != 0)
		if err != nil {
			t.Fatalf("%s query %v: %v", tgt, q, err)
		}
		for _, oc := range ocs {
			if oc == cache.Hit {
				hits++
				put(1)
			} else {
				misses++
				put(0)
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%s: the mix measured %d hits and %d misses; it must exercise both", tgt, hits, misses)
	}
	put(cpu.RDTSC())
	put(cpu.LoadCount())
	return hex.EncodeToString(h.Sum(nil))
}
