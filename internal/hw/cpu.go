package hw

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/policy"
)

// Addr is a virtual or physical byte address.
type Addr uint64

// physBits is the size of the simulated physical address space (16 GiB),
// enough to exercise the high bits of the slice hash.
const physBits = 34

// sliceHashMasks are the XOR-reduction masks of the complex slice-addressing
// function reverse-engineered by Maurice et al. [27]; slice bit i is the
// parity of the physical address masked with masks[i].
var sliceHashMasks = [3]uint64{0x1b5f575440, 0x2eb5faa880, 0x3cccc93100}

// CPU is one simulated processor. It is not safe for concurrent use, like
// the single hardware thread CacheQuery pins itself to.
type CPU struct {
	cfg CPUConfig
	rng *rand.Rand // page frames and latency noise
	// throttle is the randomized insertion throttle's own stream (see
	// nondetThrottle), so which loads are timed never changes a later
	// replacement decision.
	throttle *rand.Rand

	pages    map[uint64]uint64 // virtual page -> physical page
	usedPhys map[uint64]bool
	nextVirt Addr               // bump allocator for AllocBuffer
	lines    map[Addr]*lineInfo // per-line memo, keyed by physical line address

	levels [3]*cacheLevel
	psel   int // set-dueling counter, 0..pselMax

	prefetchOn bool
	lowNoise   bool
	lastLine   Addr
	streak     int

	interpreted bool // drive set policies through the interface, not the kernel

	tsc       uint64
	loadCount uint64
}

// hwCompileStates bounds the policy kernel inside the simulated CPUs: big
// enough for every per-set policy the configured models install (PLRU-8 has
// 128 control states, New1-4 160, CAT-reduced BRRIP-4 8,192). New2 and BRRIP
// at the full 12/16-way L3 exceed it; on packed state keys that search
// gives up in tens of milliseconds, once per process (policy.CompileNamed).
const hwCompileStates = 1 << 14

// newPolicy instantiates one set's policy: a fresh view of the shared
// compiled table when the kernel applies, the interpreted policy otherwise.
// Thousands of sets across every CPU replica share one table and each set
// carries only its int32 control state.
func (c *CPU) newPolicy(name string, assoc int) policy.Policy {
	if !c.interpreted {
		if t, err := policy.CompileNamed(name, assoc, hwCompileStates); err == nil {
			return t.At(t.InitState())
		}
	}
	return policy.MustNew(name, assoc)
}

// SetInterpreted switches the CPU's replacement policies between the
// compiled kernel (default) and the interpreted Policy interface, dropping
// every materialized set so the change applies uniformly. Observable cache
// behaviour is bit-identical either way; the interpreted representation is
// the reference the equivalence tests and kernel benchmarks compare
// against.
//
// Call it on a fresh CPU, before any traffic: toggling mid-run would empty
// the caches like a wbinvd while TSC/PSEL keep running — a state matching
// neither a pure-compiled nor a pure-interpreted run — so it panics once
// traffic has flowed.
func (c *CPU) SetInterpreted(on bool) {
	if c.loadCount != 0 || c.tsc != 0 {
		panic("hw: SetInterpreted must be called on a fresh CPU, before any traffic")
	}
	c.interpreted = on
	for _, lv := range c.levels {
		lv.drop()
	}
}

const (
	pselMax  = 1023
	pselInit = 512
)

// cacheLevel is one level of the hierarchy with lazily materialized sets.
type cacheLevel struct {
	lvl      Level
	cfg      LevelConfig
	sets     []*lineSet // dense index slice*SetsPerSlice + set; nil until touched
	catAssoc int        // 0 = CAT off (full associativity)
}

// drop invalidates every line of the level and discards its materialized
// sets, so the next touch of each set builds it afresh.
func (lv *cacheLevel) drop() {
	for i, s := range lv.sets {
		if s != nil {
			s.flush()
			lv.sets[i] = nil
		}
	}
}

// throttleSeedMix derives the throttle stream's seed from the CPU seed.
const throttleSeedMix = 0x7468726f74746c65 // "throttle"

// NewCPU builds a simulated processor. The seed fixes the page-frame
// assignment, latency noise and the randomized components of the adaptive
// L3, making whole experiments reproducible.
func NewCPU(cfg CPUConfig, seed int64) *CPU {
	c := &CPU{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		throttle: rand.New(rand.NewSource(seed ^ throttleSeedMix)),
		pages:    make(map[uint64]uint64),
		usedPhys: make(map[uint64]bool),
		nextVirt: PageSize, // keep the zero page unmapped
		lines:    make(map[Addr]*lineInfo),
		psel:     pselInit,
	}
	for _, l := range []Level{L1, L2, L3} {
		lc := cfg.Config(l)
		c.levels[l] = &cacheLevel{lvl: l, cfg: lc, sets: make([]*lineSet, lc.Slices*lc.SetsPerSlice)}
	}
	return c
}

// Config returns the processor model.
func (c *CPU) Config() CPUConfig { return c.cfg }

// AllocBuffer reserves n contiguous virtual pages and returns the base
// address. Physical frames are assigned on first touch.
func (c *CPU) AllocBuffer(n int) Addr {
	base := c.nextVirt
	c.nextVirt += Addr(n) * PageSize
	return base
}

// TranslateToPhys walks the simulated page table, allocating a frame on
// first touch — the privileged API a kernel-module backend relies on.
func (c *CPU) TranslateToPhys(va Addr) Addr {
	vpage := uint64(va) / PageSize
	ppage, ok := c.pages[vpage]
	if !ok {
		// Deterministic pseudo-random frame assignment with collision
		// probing, seeded by the CPU's RNG state at first touch.
		ppage = c.rng.Uint64() & (1<<(physBits-12) - 1)
		for c.usedPhys[ppage] {
			ppage = (ppage + 1) & (1<<(physBits-12) - 1)
		}
		c.usedPhys[ppage] = true
		c.pages[vpage] = ppage
	}
	return Addr(ppage*PageSize + uint64(va)%PageSize)
}

// SetIndex returns the (slice, set) pair a physical address maps to at a
// level. This mapping knowledge is what CacheQuery is parametric on (§4.3).
func (c *CPU) SetIndex(l Level, pa Addr) (slice, set int) {
	cfg := c.cfg.Config(l)
	set = int(uint64(pa) / LineSize % uint64(cfg.SetsPerSlice))
	if cfg.Slices == 1 {
		return 0, set
	}
	k := bits.TrailingZeros(uint(cfg.Slices))
	for i := 0; i < k; i++ {
		if bits.OnesCount64(uint64(pa)&sliceHashMasks[i])%2 == 1 {
			slice |= 1 << i
		}
	}
	return slice, set
}

// lineInfo is the memoized record of one physical cache line: its dense
// set index at every level, computed once (the slice hash dominated the
// simulator's profile before this memo), its residency bits, and the way it
// occupies where resident. Sets hold pointers to these records, so the load
// path compares no names and looks up no maps once a line is resolved.
type lineInfo struct {
	pa  Addr     // physical line address
	set [3]int32 // slice*SetsPerSlice + set, per level
	res uint8    // bit l: resident in its level-l set
	way [3]uint8 // way held at each level where resident
}

// resident reports whether the line is in its level-l set.
func (li *lineInfo) resident(l Level) bool { return li.res&(1<<l) != 0 }

// Line is a resolved cache line: the handle LoadLine and CLFlushLine take.
// Resolving translates the virtual address once (allocating the frame on
// first touch, exactly as a load would) and binds the line's memoized
// record, so callers that replay the same addresses — CacheQuery's backend
// — pay neither page-table nor line lookups per access.
type Line struct{ li *lineInfo }

// ResolveLine translates va and returns the handle of its cache line.
func (c *CPU) ResolveLine(va Addr) Line {
	return Line{c.lineInfo(c.TranslateToPhys(va))}
}

func (c *CPU) lineInfo(pa Addr) *lineInfo {
	line := pa &^ (LineSize - 1)
	if li, ok := c.lines[line]; ok {
		return li
	}
	li := &lineInfo{pa: line}
	for _, l := range []Level{L1, L2, L3} {
		slice, set := c.SetIndex(l, line)
		li.set[l] = int32(slice*c.levels[l].cfg.SetsPerSlice + set)
	}
	c.lines[line] = li
	return li
}

// effectiveAssoc returns the associativity visible at a level, accounting
// for CAT way masking.
func (lv *cacheLevel) effectiveAssoc() int {
	if lv.catAssoc > 0 {
		return lv.catAssoc
	}
	return lv.cfg.Assoc
}

// set returns li's set at level l, materializing it on first touch.
func (c *CPU) set(l Level, li *lineInfo) *lineSet {
	lv := c.levels[l]
	idx := li.set[l]
	if s := lv.sets[idx]; s != nil {
		return s
	}
	slice, set := int(idx)/lv.cfg.SetsPerSlice, int(idx)%lv.cfg.SetsPerSlice
	s := newLineSet(c.newPolicyFor(l, slice, set, lv.effectiveAssoc()), l)
	if l == L3 {
		s.leader = c.LeaderKindOf(slice, set)
	}
	lv.sets[idx] = s
	return s
}

// invalidate removes li from its level-l set, if it is resident there.
func (c *CPU) invalidate(l Level, li *lineInfo) {
	if li.resident(l) {
		c.levels[l].sets[li.set[l]].remove(li)
	}
}

// newPolicyFor instantiates the replacement policy of one set. The adaptive
// wrappers (dueling followers, the randomized throttle) stay interpreted —
// they are deliberately not deterministic Mealy machines — but their inner
// dueling policies run on the kernel.
func (c *CPU) newPolicyFor(l Level, slice, set, assoc int) policy.Policy {
	cfg := c.cfg.Config(l)
	if l != L3 || !c.cfg.L3Adaptive {
		return c.newPolicy(cfg.Policy, assoc)
	}
	switch c.cfg.LeaderRule(slice, set) {
	case LeaderThrashable:
		return c.newPolicy(c.cfg.ThrashablePolicy, assoc)
	case LeaderResistant:
		return c.newResistantPolicy(assoc)
	default:
		return &duelPolicy{
			cpu: c,
			a:   c.newPolicy(c.cfg.ThrashablePolicy, assoc),
			b:   c.newResistantPolicy(assoc),
		}
	}
}

func (c *CPU) newResistantPolicy(assoc int) policy.Policy {
	if c.cfg.ResistantNondet {
		return newNondetThrottle(c, assoc)
	}
	return c.newPolicy("BRRIP", assoc)
}

// LeaderKindOf classifies an L3 set, mirroring the configuration rule.
func (c *CPU) LeaderKindOf(slice, set int) LeaderKind {
	if !c.cfg.L3Adaptive {
		return Follower
	}
	return c.cfg.LeaderRule(slice, set)
}

// Load performs one memory load and returns the measured latency in cycles,
// as an rdtsc-based profiler would observe it.
func (c *CPU) Load(va Addr) float64 { return c.LoadLine(c.ResolveLine(va)) }

// LoadLine is Load on a resolved line.
func (c *CPU) LoadLine(l Line) float64 {
	lat, sigma := c.serve(l.li)
	return c.retire(l.li, lat+c.noise(sigma))
}

// TouchLine is an untimed load: it has exactly LoadLine's cache effects
// (set states, victims, back-invalidation, PSEL, prefetcher, load count)
// and advances the TSC by the serving level's base latency, but draws no
// latency noise. Loads whose latency nobody reads — CacheQuery's filter
// and eviction traffic — use it to skip the noise draws.
func (c *CPU) TouchLine(l Line) {
	lat, _ := c.serve(l.li)
	c.retire(l.li, lat)
}

// serve walks the hierarchy for one load of li and returns the serving
// level's base latency and noise sigma. A timed load draws its noise only
// after the whole walk: the L3 access can draw from the same RNG stream
// (Haswell's randomized throttle), and the golden traces pin that order.
func (c *CPU) serve(li *lineInfo) (lat, sigma float64) {
	c.loadCount++
	if hit, _ := c.set(L1, li).access(li); hit {
		return c.cfg.L1.HitLatency, c.cfg.L1.LatencySigma
	}
	if hit, _ := c.set(L2, li).access(li); hit {
		return c.cfg.L2.HitLatency, c.cfg.L2.LatencySigma
	}
	if c.accessL3(li) {
		return c.cfg.L3.HitLatency, c.cfg.L3.LatencySigma
	}
	return c.cfg.MemLatency, c.cfg.MemSigma
}

// retire charges a load's latency to the TSC and trains the prefetcher.
func (c *CPU) retire(li *lineInfo, lat float64) float64 {
	if lat < 1 {
		lat = 1
	}
	c.tsc += uint64(lat)
	if c.prefetchOn {
		c.maybePrefetch(li.pa)
	}
	return lat
}

// accessL3 accesses the (possibly adaptive) L3, maintaining the set-dueling
// counter and the inclusive-hierarchy back-invalidation, and reports a hit.
func (c *CPU) accessL3(li *lineInfo) bool {
	s := c.set(L3, li)
	hit, victim := s.access(li)
	if !hit {
		// Misses in leader sets steer PSEL towards the other policy.
		switch s.leader {
		case LeaderThrashable:
			if c.psel < pselMax {
				c.psel++
			}
		case LeaderResistant:
			if c.psel > 0 {
				c.psel--
			}
		}
	}
	if victim != nil {
		// Inclusive LLC: evicting a line invalidates it in L1 and L2.
		c.invalidate(L1, victim)
		c.invalidate(L2, victim)
	}
	return hit
}

// noise draws latency noise: Gaussian jitter plus rare large outliers
// standing in for interrupts and SMM excursions. CacheQuery's low-noise
// environment setup (§4.3) suppresses most outliers.
func (c *CPU) noise(sigma float64) float64 {
	n := c.rng.NormFloat64() * sigma
	outlierP := 1.0 / 200
	if c.lowNoise {
		outlierP = 1.0 / 20000
	} else {
		n *= 3
	}
	if c.rng.Float64() < outlierP {
		n += 150 + c.rng.Float64()*300
	}
	return n
}

// maybePrefetch implements a stream prefetcher: after two consecutive
// +1-line strides it pulls the next line into L2 (and L3 on the way).
func (c *CPU) maybePrefetch(pa Addr) {
	line := pa / LineSize
	if line == c.lastLine+1 {
		c.streak++
	} else if line != c.lastLine {
		c.streak = 0
	}
	c.lastLine = line
	if c.streak >= 2 {
		li := c.lineInfo((line + 1) * LineSize)
		c.accessL3(li)
		c.set(L2, li).access(li)
	}
}

// CLFlush invalidates the line containing va throughout the hierarchy.
func (c *CPU) CLFlush(va Addr) { c.CLFlushLine(c.ResolveLine(va)) }

// CLFlushLine is CLFlush on a resolved line. A line resident nowhere costs
// only the instruction's timestamp charge.
func (c *CPU) CLFlushLine(l Line) {
	if l.li.res != 0 {
		for _, lvl := range []Level{L1, L2, L3} {
			c.invalidate(lvl, l.li)
		}
	}
	c.tsc += 120
}

// WBInvd invalidates every cache line on the processor. As on silicon, the
// replacement metadata is not reset — only the data is gone.
func (c *CPU) WBInvd() {
	for _, lv := range c.levels {
		for _, s := range lv.sets {
			if s != nil {
				s.flush()
			}
		}
	}
	c.tsc += 20000
}

// SetPrefetcher enables or disables the hardware prefetcher (the MSR pokes
// of §4.3).
func (c *CPU) SetPrefetcher(on bool) { c.prefetchOn = on; c.streak = 0 }

// SetLowNoise models disabling hyper-threading, frequency scaling, other
// cores and interrupts around measurements.
func (c *CPU) SetLowNoise(on bool) { c.lowNoise = on }

// SetCATWays restricts the L3 fill mask to the given number of ways
// (virtually reducing associativity, §7.1). It drops all materialized L3
// sets, like reprogramming the class-of-service masks after a wbinvd.
// Passing 0 restores full associativity.
func (c *CPU) SetCATWays(ways int) error {
	if !c.cfg.SupportsCAT && ways != 0 {
		return fmt.Errorf("hw: %s does not support CAT", c.cfg.Name)
	}
	if ways < 0 || ways > c.cfg.L3.Assoc {
		return fmt.Errorf("hw: CAT ways %d out of range 0..%d", ways, c.cfg.L3.Assoc)
	}
	c.levels[L3].catAssoc = ways
	c.levels[L3].drop()
	return nil
}

// EffectiveAssoc returns the associativity visible at a level, accounting
// for CAT way masking on the L3.
func (c *CPU) EffectiveAssoc(l Level) int { return c.levels[l].effectiveAssoc() }

// RDTSC returns the timestamp counter.
func (c *CPU) RDTSC() uint64 { return c.tsc }

// LoadCount returns the number of loads issued (a performance-counter
// stand-in used by the cost experiments).
func (c *CPU) LoadCount() uint64 { return c.loadCount }

// PSEL exposes the set-dueling counter for the Appendix B experiments.
func (c *CPU) PSEL() int { return c.psel }

// ResidentLevel reports the lowest level holding va's line, or -1 when
// uncached — a white-box hook for tests only.
func (c *CPU) ResidentLevel(va Addr) int {
	li := c.ResolveLine(va).li
	for _, l := range []Level{L1, L2, L3} {
		if li.resident(l) {
			return int(l)
		}
	}
	return -1
}
