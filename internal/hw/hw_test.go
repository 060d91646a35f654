package hw

import (
	"testing"

	"repro/internal/policy"
)

func skylake(t *testing.T) *CPU {
	t.Helper()
	c := NewCPU(Skylake(), 1)
	c.SetLowNoise(true)
	return c
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"L1": L1, "l2": L2, "3": L3} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("L4"); err == nil {
		t.Error("ParseLevel(L4) succeeded")
	}
}

func TestTranslationIsStableAndInjective(t *testing.T) {
	c := skylake(t)
	base := c.AllocBuffer(64)
	seen := make(map[Addr]bool)
	for i := 0; i < 64; i++ {
		va := base + Addr(i)*PageSize
		pa := c.TranslateToPhys(va)
		if pa2 := c.TranslateToPhys(va); pa2 != pa {
			t.Fatalf("translation of %#x changed: %#x vs %#x", va, pa, pa2)
		}
		page := pa &^ (PageSize - 1)
		if seen[page] {
			t.Fatalf("physical page %#x assigned twice", page)
		}
		seen[page] = true
		if pa%PageSize != va%PageSize {
			t.Fatalf("page offset not preserved: va %#x -> pa %#x", va, pa)
		}
	}
}

func TestSetIndexProperties(t *testing.T) {
	c := skylake(t)
	cfg := c.Config()
	// Two addresses one line apart land in adjacent L1 sets modulo the
	// set count; same line offset within a page shares the L1 set.
	pa := Addr(0x12340)
	s0, i0 := c.SetIndex(L1, pa)
	s1, i1 := c.SetIndex(L1, pa+LineSize)
	if s0 != 0 || s1 != 0 {
		t.Errorf("L1 has one slice, got slices %d/%d", s0, s1)
	}
	if (i0+1)%cfg.L1.SetsPerSlice != i1 {
		t.Errorf("adjacent lines in L1 sets %d and %d", i0, i1)
	}
	// The L3 slice is within range and depends only on the physical
	// address.
	for _, p := range []Addr{0, 0x40, 0x123456780, 0x3ffffffc0} {
		slice, set := c.SetIndex(L3, p)
		if slice < 0 || slice >= cfg.L3.Slices {
			t.Errorf("slice %d out of range for %#x", slice, p)
		}
		if set < 0 || set >= cfg.L3.SetsPerSlice {
			t.Errorf("set %d out of range for %#x", set, p)
		}
	}
}

func TestLoadLatencyClasses(t *testing.T) {
	c := skylake(t)
	va := c.AllocBuffer(1)
	cold := c.Load(va)
	warm := c.Load(va)
	if cold < 100 {
		t.Errorf("cold load took %.1f cycles, expected a DRAM-class latency", cold)
	}
	if warm > 20 {
		t.Errorf("warm load took %.1f cycles, expected an L1 hit", warm)
	}
	if got := c.ResidentLevel(va); got != 0 {
		t.Errorf("line resident at level %d, want L1", got)
	}
}

func TestCLFlushEvictsEverywhere(t *testing.T) {
	c := skylake(t)
	va := c.AllocBuffer(1)
	c.Load(va)
	c.CLFlush(va)
	if got := c.ResidentLevel(va); got != -1 {
		t.Errorf("line still resident at level %d after clflush", got)
	}
	if lat := c.Load(va); lat < 100 {
		t.Errorf("load after clflush took %.1f cycles, expected DRAM", lat)
	}
}

func TestWBInvdFlushesButKeepsTranslations(t *testing.T) {
	c := skylake(t)
	va := c.AllocBuffer(1)
	pa := c.TranslateToPhys(va)
	c.Load(va)
	c.WBInvd()
	if got := c.ResidentLevel(va); got != -1 {
		t.Errorf("resident level %d after wbinvd", got)
	}
	if c.TranslateToPhys(va) != pa {
		t.Error("wbinvd changed the page mapping")
	}
}

// congruentL3 returns n virtual addresses mapping to the same L3 slice/set.
func congruentL3(c *CPU, n int) []Addr {
	base := c.AllocBuffer(4096)
	ref := c.TranslateToPhys(base)
	slice, set := c.SetIndex(L3, ref)
	out := []Addr{base}
	for off := Addr(1); len(out) < n; off++ {
		va := base + off*LineSize
		s, i := c.SetIndex(L3, c.TranslateToPhys(va))
		if s == slice && i == set {
			out = append(out, va)
		}
	}
	return out
}

func TestInclusiveBackInvalidation(t *testing.T) {
	c := skylake(t)
	// Fill one L3 set beyond capacity; the evicted victims must vanish
	// from L1/L2 as well.
	addrs := congruentL3(c, c.Config().L3.Assoc+4)
	for _, va := range addrs {
		c.Load(va)
	}
	evicted := 0
	for _, va := range addrs {
		lvl := c.ResidentLevel(va)
		if lvl == -1 {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("overfilling an L3 set evicted nothing")
	}
	// No evicted line may survive in a higher level: ResidentLevel
	// returning -1 already proves that, so just double-check one present
	// line is still coherent.
	if c.ResidentLevel(addrs[len(addrs)-1]) == -1 {
		t.Error("most recently loaded line was evicted")
	}
}

func TestCATRestrictsAssociativity(t *testing.T) {
	c := skylake(t)
	if err := c.SetCATWays(4); err != nil {
		t.Fatal(err)
	}
	addrs := congruentL3(c, 5)
	for _, va := range addrs {
		c.Load(va)
	}
	// With 4 ways, loading 5 congruent lines must have evicted one.
	resident := 0
	for _, va := range addrs {
		if c.ResidentLevel(va) != -1 {
			resident++
		}
	}
	if resident > 4 {
		t.Errorf("%d of 5 congruent lines resident under a 4-way mask", resident)
	}

	h := NewCPU(Haswell(), 1)
	if err := h.SetCATWays(4); err == nil {
		t.Error("Haswell accepted CAT configuration")
	}
	if err := c.SetCATWays(99); err == nil {
		t.Error("out-of-range way count accepted")
	}
}

func TestPrefetcherPullsNextLine(t *testing.T) {
	c := skylake(t)
	c.SetPrefetcher(true)
	base := c.AllocBuffer(1)
	for i := 0; i < 3; i++ {
		c.Load(base + Addr(i)*LineSize)
	}
	if got := c.ResidentLevel(base + 3*LineSize); got == -1 {
		t.Error("stream prefetcher did not pull the next line")
	}
	c.SetPrefetcher(false)
	base2 := c.AllocBuffer(1)
	for i := 0; i < 3; i++ {
		c.Load(base2 + Addr(i)*LineSize)
	}
	if got := c.ResidentLevel(base2 + 3*LineSize); got != -1 {
		t.Error("disabled prefetcher still prefetched")
	}
}

func TestSkylakeLeaderRuleMatchesAppendixB(t *testing.T) {
	// Set 0 satisfies the thrash-susceptible formula; the paper's Table 4
	// lists 0, 33, 132, 165, ... as analyzed leader sets.
	for _, set := range []int{0, 33, 132, 165, 264, 297, 396, 429, 528, 561, 660, 693, 792, 825, 924, 957} {
		if got := skylakeLeaderRule(0, set); got != LeaderThrashable {
			t.Errorf("set %d classified %v, want LeaderThrashable", set, got)
		}
	}
	// Count the groups over one slice of 1024 sets.
	counts := map[LeaderKind]int{}
	for set := 0; set < 1024; set++ {
		counts[skylakeLeaderRule(0, set)]++
	}
	if counts[LeaderThrashable] != 16 || counts[LeaderResistant] != 16 {
		t.Errorf("leader group sizes %v, want 16/16", counts)
	}
}

func TestHaswellLeaderRuleRanges(t *testing.T) {
	for set := 0; set < 2048; set++ {
		want := Follower
		if set >= 512 && set < 576 {
			want = LeaderThrashable
		}
		if set >= 768 && set < 832 {
			want = LeaderResistant
		}
		if got := haswellLeaderRule(0, set); got != want {
			t.Fatalf("slice 0 set %d: %v, want %v", set, got, want)
		}
		if got := haswellLeaderRule(1, set); got != Follower {
			t.Fatalf("slice 1 set %d: %v, want Follower", set, got)
		}
	}
}

func TestPSELRespondsToLeaderTraffic(t *testing.T) {
	c := skylake(t)
	before := c.PSEL()
	// Thrash a thrash-susceptible leader set: misses there push PSEL up.
	addrs := congruentLeader(c, LeaderThrashable, c.Config().L3.Assoc*2)
	for pass := 0; pass < 4; pass++ {
		for _, va := range addrs {
			c.Load(va)
		}
	}
	if c.PSEL() <= before {
		t.Errorf("PSEL %d -> %d after thrashing a leader set", before, c.PSEL())
	}
}

// congruentLeader finds n addresses in some L3 set of the given leader kind.
func congruentLeader(c *CPU, kind LeaderKind, n int) []Addr {
	base := c.AllocBuffer(16384)
	var ref Addr
	var slice, set int
	found := false
	for off := Addr(0); !found; off++ {
		va := base + off*LineSize
		pa := c.TranslateToPhys(va)
		s, i := c.SetIndex(L3, pa)
		if c.LeaderKindOf(s, i) == kind {
			ref, slice, set, found = va, s, i, true
		}
	}
	out := []Addr{ref}
	for off := Addr(1); len(out) < n; off++ {
		va := ref + off*LineSize
		s, i := c.SetIndex(L3, c.TranslateToPhys(va))
		if s == slice && i == set {
			out = append(out, va)
		}
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		c := NewCPU(KabyLake(), 42)
		c.SetLowNoise(true)
		base := c.AllocBuffer(8)
		var lats []float64
		for i := 0; i < 50; i++ {
			lats = append(lats, c.Load(base+Addr(i%8)*PageSize))
		}
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at load %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestModelsMatchTableThree(t *testing.T) {
	m := Models()
	if len(m) != 3 {
		t.Fatalf("%d models", len(m))
	}
	checks := []struct {
		idx                 int
		lvl                 Level
		assoc, slices, sets int
	}{
		{0, L1, 8, 1, 64}, {0, L2, 8, 1, 512}, {0, L3, 16, 4, 2048},
		{1, L1, 8, 1, 64}, {1, L2, 4, 1, 1024}, {1, L3, 12, 8, 1024},
		{2, L1, 8, 1, 64}, {2, L2, 4, 1, 1024}, {2, L3, 16, 8, 1024},
	}
	for _, c := range checks {
		cfg := m[c.idx].Config(c.lvl)
		if cfg.Assoc != c.assoc || cfg.Slices != c.slices || cfg.SetsPerSlice != c.sets {
			t.Errorf("%s %v: assoc/slices/sets = %d/%d/%d, want %d/%d/%d",
				m[c.idx].Name, c.lvl, cfg.Assoc, cfg.Slices, cfg.SetsPerSlice, c.assoc, c.slices, c.sets)
		}
	}
	if m[0].SupportsCAT || !m[1].SupportsCAT || !m[2].SupportsCAT {
		t.Error("CAT support flags wrong")
	}
}

func TestFollowerSetsShareDuelState(t *testing.T) {
	c := skylake(t)
	addrs := congruentLeader(c, Follower, 2)
	s := c.set(L3, c.ResolveLine(addrs[0]).li)
	if _, ok := s.policy().(*duelPolicy); !ok {
		t.Errorf("follower set runs %T, want duelPolicy", s.policy())
	}
	// Leader sets run fixed policies.
	la := congruentLeader(c, LeaderThrashable, 1)
	lp := c.set(L3, c.ResolveLine(la[0]).li).policy()
	if lp.Name() != "New2" {
		t.Errorf("thrashable leader runs %s, want New2", lp.Name())
	}
}

func TestCacheOutcomeSanity(t *testing.T) {
	// Guard the victim path of back-invalidation: the moment a line leaves
	// its L3 set it must leave L1 and L2 too, and every residency bit must
	// agree with the ways of the line's sets.
	c := skylake(t)
	addrs := congruentL3(c, c.Config().L3.Assoc+4)
	va := addrs[0]
	c.Load(va)
	if c.ResidentLevel(va) != int(L1) {
		t.Fatal("loaded line not resident in L1")
	}
	li := c.ResolveLine(va).li
	for _, other := range addrs[1:] {
		c.Load(other)
		checkResidency(t, c)
		if !li.resident(L3) {
			if got := c.ResidentLevel(va); got != -1 {
				t.Fatalf("line evicted from L3 still resident at level %d", got)
			}
			return
		}
	}
	t.Fatal("overfilling the L3 set never evicted the first line")
}

// checkResidency verifies the residency bits against the materialized
// sets: a line's bit l is set exactly when its level-l set holds it.
func checkResidency(t *testing.T, c *CPU) {
	t.Helper()
	held := make(map[*lineInfo]uint8)
	for l, lv := range c.levels {
		for idx, s := range lv.sets {
			if s == nil {
				continue
			}
			for _, w := range s.ways {
				if w == nil {
					continue
				}
				if w.set[l] != int32(idx) {
					t.Fatalf("line %#x in level %d set %d, maps to set %d", w.pa, l, idx, w.set[l])
				}
				if held[w]&(1<<l) != 0 {
					t.Fatalf("line %#x held twice at level %d", w.pa, l)
				}
				if s.ways[w.way[l]] != w {
					t.Fatalf("line %#x records way %d at level %d, not the way holding it", w.pa, w.way[l], l)
				}
				held[w] |= 1 << l
			}
		}
	}
	for _, li := range c.lines {
		if li.res != held[li] {
			t.Fatalf("line %#x: residency bits %03b, sets hold it at %03b", li.pa, li.res, held[li])
		}
	}
}

// TestCompiledCPUMatchesInterpreted drives two identically-seeded CPUs —
// one on the compiled policy kernel (the default), one forced interpreted —
// through the same load/flush mix and asserts bit-identical observable
// behaviour: latencies, timestamp counter, PSEL and residency. The kernel
// shares one transition table across all materialized sets; it must never
// change what the simulated silicon does.
func TestCompiledCPUMatchesInterpreted(t *testing.T) {
	kc := NewCPU(Skylake(), 42)
	ic := NewCPU(Skylake(), 42)
	ic.SetInterpreted(true)
	kc.SetLowNoise(true)
	ic.SetLowNoise(true)
	base := kc.AllocBuffer(512)
	if ic.AllocBuffer(512) != base {
		t.Fatal("allocators diverged")
	}
	for i := 0; i < 4000; i++ {
		va := base + Addr((i*37)%(512*int(PageSize)/int(LineSize)))*LineSize
		if i%97 == 0 {
			kc.CLFlush(va)
			ic.CLFlush(va)
			continue
		}
		kl := kc.Load(va)
		il := ic.Load(va)
		if kl != il {
			t.Fatalf("load %d: compiled latency %v, interpreted %v", i, kl, il)
		}
		if kc.ResidentLevel(va) != ic.ResidentLevel(va) {
			t.Fatalf("load %d: residency diverged", i)
		}
	}
	if kc.RDTSC() != ic.RDTSC() || kc.PSEL() != ic.PSEL() {
		t.Fatalf("tsc/psel diverged: %d/%d vs %d/%d", kc.RDTSC(), kc.PSEL(), ic.RDTSC(), ic.PSEL())
	}
}

// TestKernelTableIsShared: two sets of the same level run on the same
// compiled table instance (the process-wide cache), not per-set copies.
func TestKernelTableIsShared(t *testing.T) {
	c := skylake(t)
	s1 := c.set(L1, &lineInfo{set: [3]int32{0, 0, 0}})
	s2 := c.set(L1, &lineInfo{set: [3]int32{1, 0, 0}})
	p1, ok1 := s1.policy().(*policy.Table)
	p2, ok2 := s2.policy().(*policy.Table)
	if !ok1 || !ok2 {
		t.Fatal("L1 PLRU sets are not on the compiled kernel")
	}
	if p1.NumStates() != p2.NumStates() || p1.Name() != p2.Name() {
		t.Fatal("set views disagree about the compiled table")
	}
	t1, err1 := policy.CompileNamed("PLRU", 8, hwCompileStates)
	t2, err2 := policy.CompileNamed("PLRU", 8, hwCompileStates)
	if err1 != nil || err2 != nil || t1 != t2 {
		t.Fatal("process-wide table cache returned distinct tables")
	}
	if _, err := policy.CompileNamed("New2", 16, hwCompileStates); err == nil {
		t.Fatal("New2-16 compiled despite exceeding the hw state bound")
	}
}

// TestSetInterpretedRejectsMidRunToggle: the representation toggle is a
// construction-time choice; flipping it after traffic would leave a hybrid
// state (empty caches, advanced TSC/PSEL), so it must fail loudly.
func TestSetInterpretedRejectsMidRunToggle(t *testing.T) {
	c := skylake(t)
	c.Load(c.AllocBuffer(1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetInterpreted after traffic did not panic")
		}
	}()
	c.SetInterpreted(true)
}
