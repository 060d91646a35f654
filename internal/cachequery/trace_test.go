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
// its addresses. The digests hash the CPU's noise stream, which only timed
// loads draw from, and the number of repetitions each sequential vote
// runs, so they move whenever either does.
var backendTraceDigests = map[string]string{
	"l1_sets/0":    "175cb97a5d15a7aa45d1133a4a8a3b3f55c5a204ecd9315b39bd898dfa3c10c6",
	"l2_sets/33":   "849cc664028485f2dccbbee1937b8c51349a7ca243c467734119b24eb717398d",
	"l3_sets/1.96": "b2ab9e4462e500ee6acc98eea7a324f7ae37f07f2481d944ae1dd415bae1d37c",
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
