package hw

import (
	"math/rand"
	"testing"
)

// touchPool returns the address pool of the TouchLine differential: hot
// lines that overfill L3 sets (evictions, back-invalidation, PSEL
// traffic), then a block of lines that conflict in L1 and L2 only. On an
// adaptive L3 the followers and both leader groups are overfilled,
// Haswell's randomized throttle included: it draws from its own stream,
// which timed and untimed loads leave alike. The block's lines spread too
// thinly to fill any L3 set.
func touchPool(c *CPU) (pool []Addr, hot int) {
	kinds := []LeaderKind{Follower, LeaderThrashable, LeaderResistant}
	if !c.cfg.L3Adaptive {
		kinds = []LeaderKind{Follower}
	}
	for _, kind := range kinds {
		pool = append(pool, congruentLeader(c, kind, c.cfg.L3.Assoc+6)...)
	}
	hot = len(pool)
	base := c.AllocBuffer(32)
	for i := 0; i < 32*PageSize/LineSize; i += 3 {
		pool = append(pool, base+Addr(i)*LineSize)
	}
	return pool, hot
}

// sameLine compares two CPUs' records of one line: address, residency bits
// and the way held at every level where resident.
func sameLine(a, b *lineInfo) bool {
	if a.pa != b.pa || a.res != b.res {
		return false
	}
	for _, l := range []Level{L1, L2, L3} {
		if a.resident(l) && a.way[l] != b.way[l] {
			return false
		}
	}
	return true
}

// sameSet compares two CPUs' copies of one set: materialization, the line
// in every way, and the replacement control state.
func sameSet(a, b *lineSet) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.ways) != len(b.ways) || a.leader != b.leader {
		return false
	}
	for i := range a.ways {
		wa, wb := a.ways[i], b.ways[i]
		if (wa == nil) != (wb == nil) || (wa != nil && wa.pa != wb.pa) {
			return false
		}
	}
	if a.tab != nil {
		return b.tab != nil && a.tstate == b.tstate
	}
	return b.tab == nil && a.pol.StateKey() == b.pol.StateKey()
}

// sameLineSets compares the sets of the line at physical address pa on
// both CPUs, at every level; a line neither CPU has recorded is equal.
func sameLineSets(a, b *CPU, pa Addr) bool {
	la, lb := a.lines[pa], b.lines[pa]
	if la == nil || lb == nil {
		return la == lb
	}
	if !sameLine(la, lb) {
		return false
	}
	for _, l := range []Level{L1, L2, L3} {
		if !sameSet(a.levels[l].sets[la.set[l]], b.levels[l].sets[lb.set[l]]) {
			return false
		}
	}
	return true
}

// TestTouchLineMatchesLoadLine replays a seeded Load/TouchLine/CLFlush mix
// on two same-seed CPUs of every model, on the compiled kernel and
// interpreted. Where one CPU issues LoadLine the other issues TouchLine,
// for a random subset of the loads. After every operation the two must
// agree on residency and ways of every pool line, the sets of the lines
// the operation touched (the prefetch target included), PSEL and the load
// count; at the end every materialized set and line record must agree.
// Only the TSC may differ: an untimed load charges its base latency. Three
// loads in four go to the hot lines, and whole-cache drops (WBInvd, CAT)
// are rare, so the hot L3 sets fill and evict.
func TestTouchLineMatchesLoadLine(t *testing.T) {
	const ops = 20000
	for _, cfg := range Models() {
		for _, interpreted := range []bool{false, true} {
			load := newCPUSim(cfg, 7, interpreted)
			touch := newCPUSim(cfg, 7, interpreted)
			var pool, stream [2][]Line
			var hot int
			for i, c := range []*CPU{load, touch} {
				c.SetLowNoise(true)
				// Every address is translated before any traffic: frames
				// come from the RNG stream the noise draws share.
				vas, n := touchPool(c)
				for _, va := range vas {
					pool[i] = append(pool[i], c.ResolveLine(va))
				}
				hot = n
				base := c.AllocBuffer(16)
				for j := 0; j < 16*PageSize/LineSize; j++ {
					stream[i] = append(stream[i], c.ResolveLine(base+Addr(j)*LineSize))
				}
			}
			rng := rand.New(rand.NewSource(11))
			touched, evictions := 0, 0
			residentL3 := func() (n int) {
				for _, l := range pool[0][:hot] {
					if l.li.resident(L3) {
						n++
					}
				}
				return n
			}
			var streamPos int
			prefetch := false
			check := func(i int, what string, lines ...int) {
				t.Helper()
				if load.PSEL() != touch.PSEL() || load.LoadCount() != touch.LoadCount() {
					t.Fatalf("%s (interpreted=%v) op %d (%s): PSEL %d/%d, load count %d/%d",
						cfg.Arch, interpreted, i, what, load.PSEL(), touch.PSEL(), load.LoadCount(), touch.LoadCount())
				}
				for j := range pool[0] {
					if !sameLine(pool[0][j].li, pool[1][j].li) {
						t.Fatalf("%s (interpreted=%v) op %d (%s): pool line %#x residency diverged",
							cfg.Arch, interpreted, i, what, pool[0][j].li.pa)
					}
				}
				for _, j := range lines {
					pa := stream[0][j].li.pa
					if !sameLineSets(load, touch, pa) || !sameLineSets(load, touch, pa+LineSize) {
						t.Fatalf("%s (interpreted=%v) op %d (%s): the sets of stream line %#x or its successor diverged",
							cfg.Arch, interpreted, i, what, pa)
					}
				}
			}
			for i := 0; i < ops; i++ {
				j := rng.Intn(len(pool[0]))
				switch r := rng.Intn(10000); {
				case r < 500:
					load.CLFlushLine(pool[0][j])
					touch.CLFlushLine(pool[1][j])
					check(i, "clflush")
				case r < 1500:
					// A short stream run trains the prefetcher, when on.
					var run []int
					for k := 0; k < 4; k++ {
						load.LoadLine(stream[0][streamPos])
						touch.TouchLine(stream[1][streamPos])
						touched++
						run = append(run, streamPos)
						streamPos = (streamPos + 1) % len(stream[0])
					}
					check(i, "stream", run...)
				case r < 1800:
					prefetch = !prefetch
					load.SetPrefetcher(prefetch)
					touch.SetPrefetcher(prefetch)
				case r < 1805:
					load.WBInvd()
					touch.WBInvd()
					check(i, "wbinvd")
				case r < 1810:
					if cfg.SupportsCAT {
						ways := 0
						if w := rng.Intn(cfg.L3.Assoc); w >= 2 && w%4 == 0 {
							ways = w
						}
						if load.SetCATWays(ways) != nil || touch.SetCATWays(ways) != nil {
							t.Fatalf("SetCATWays(%d) failed", ways)
						}
					}
				default:
					if rng.Intn(4) != 0 {
						j = rng.Intn(hot)
					}
					before, was := residentL3(), pool[0][j].li.resident(L3)
					load.LoadLine(pool[0][j])
					if rng.Intn(2) == 0 {
						touch.TouchLine(pool[1][j])
						touched++
					} else {
						touch.LoadLine(pool[1][j])
					}
					if !was && j < hot && residentL3() == before {
						evictions++ // a hot line came in, another went out
					}
					if !sameLineSets(load, touch, pool[0][j].li.pa) {
						t.Fatalf("%s (interpreted=%v) op %d: the sets of pool line %#x diverged",
							cfg.Arch, interpreted, i, pool[0][j].li.pa)
					}
					check(i, "load")
				}
			}
			if evictions < ops/100 {
				t.Fatalf("%s: only %d L3 evictions among hot lines; the mix must overfill its sets", cfg.Arch, evictions)
			}
			if touched < ops/4 {
				t.Fatalf("%s: only %d untimed loads; the mix must exercise TouchLine", cfg.Arch, touched)
			}
			for l := range load.levels {
				a, b := load.levels[l].sets, touch.levels[l].sets
				for idx := range a {
					if !sameSet(a[idx], b[idx]) {
						t.Fatalf("%s (interpreted=%v): level %d set %d diverged", cfg.Arch, interpreted, l, idx)
					}
				}
			}
			if len(load.lines) != len(touch.lines) {
				t.Fatalf("%s (interpreted=%v): %d vs %d line records", cfg.Arch, interpreted, len(load.lines), len(touch.lines))
			}
			for pa, li := range load.lines {
				if o := touch.lines[pa]; o == nil || !sameLine(li, o) {
					t.Fatalf("%s (interpreted=%v): line %#x diverged", cfg.Arch, interpreted, pa)
				}
			}
		}
	}
}
