package hw

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cache"
	"repro/internal/policy"
)

// installedPolicies lists every per-set policy the CPU models install:
// the L1/L2 policies, the L3 leader policies at full and CAT-reduced
// associativity, and the adaptive wrappers of the follower sets and
// Haswell's resistant leaders. mk builds a fresh instance; cpu-backed
// wrappers get their own identically seeded CPU so two instances draw the
// same random numbers.
func installedPolicies() []struct {
	name string
	mk   func(interpreted bool) policy.Policy
} {
	type entry = struct {
		name string
		mk   func(interpreted bool) policy.Policy
	}
	plain := func(name string, assoc int) entry {
		return entry{fmt.Sprintf("%s-%d", name, assoc), func(interpreted bool) policy.Policy {
			c := newCPUSim(Skylake(), 1, interpreted)
			return c.newPolicy(name, assoc)
		}}
	}
	out := []entry{
		plain("PLRU", 8), plain("New1", 4),
		plain("New2", 12), plain("New2", 16), plain("BRRIP", 12), plain("BRRIP", 16),
		plain("New2", 4), plain("BRRIP", 4), plain("BRRIP", 8),
	}
	for _, assoc := range []int{12, 16} {
		assoc := assoc
		out = append(out, entry{fmt.Sprintf("Duel-%d", assoc), func(interpreted bool) policy.Policy {
			c := newCPUSim(Skylake(), 1, interpreted)
			c.psel = pselInit - 1 // start on the thrash-susceptible side
			return c.newPolicyFor(L3, 0, 1, assoc)
		}})
	}
	out = append(out, entry{"BRRIP-rand-16", func(interpreted bool) policy.Policy {
		return newNondetThrottle(newCPUSim(Haswell(), 5, interpreted), 16)
	}})
	return out
}

// TestLineSetMatchesCacheSet is the differential property test of the
// hierarchy's set representation against the Definition 2.3 reference: on
// seeded random access, clflush and wbinvd sequences, a lineSet and a
// cache.Set over the same policy must agree on every outcome, every victim,
// the content of every way, the policy's control state, and the residency
// bits — for every installed policy, compiled and interpreted.
func TestLineSetMatchesCacheSet(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for _, p := range installedPolicies() {
		for _, interpreted := range []bool{false, true} {
			name := fmt.Sprintf("%s/interpreted=%v", p.name, interpreted)
			refPol, pol := p.mk(interpreted), p.mk(interpreted)
			ref := cache.NewEmptySet(refPol)
			s := newLineSet(pol, L2)
			n := ref.Assoc()
			// A universe of 2n blocks keeps hits and evictions both common.
			lines := make([]*lineInfo, 2*n)
			names := make(map[*lineInfo]blocks.Block, 2*n)
			for i := range lines {
				lines[i] = &lineInfo{pa: Addr(i) * LineSize}
				names[lines[i]] = blocks.Interned(i)
			}
			rng := rand.New(rand.NewSource(int64(n)*31 + 7))
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					// Flip a duel to the thrash-resistant side mid-run; each
					// wrapper reads its own CPU's PSEL.
					if d, ok := refPol.(*duelPolicy); ok {
						d.cpu.psel = pselMax
						pol.(*duelPolicy).cpu.psel = pselMax
					}
				}
				i := rng.Intn(len(lines))
				li, b := lines[i], names[lines[i]]
				switch r := rng.Intn(100); {
				case r < 80:
					oc, _, evicted := ref.AccessEvicted(b)
					hit, victim := s.access(li)
					if hit != (oc == cache.Hit) {
						t.Fatalf("%s step %d: access %s hit=%v, reference %v", name, step, b, hit, oc)
					}
					if got := names[victim]; got != evicted {
						t.Fatalf("%s step %d: access %s evicted %q, reference %q", name, step, b, got, evicted)
					}
				case r < 98:
					present := ref.FlushBlock(b)
					if (li.resident(s.lvl)) != present {
						t.Fatalf("%s step %d: residency of %s disagrees before clflush", name, step, b)
					}
					if present {
						s.remove(li)
					}
				default:
					ref.Flush()
					s.flush()
				}
				for w, want := range ref.Content() {
					if got := names[s.ways[w]]; got != want {
						t.Fatalf("%s step %d: way %d holds %q, reference %q", name, step, w, got, want)
					}
				}
				for _, l := range lines {
					if (l.resident(s.lvl)) != (ref.Lookup(names[l]) >= 0) {
						t.Fatalf("%s step %d: residency bit of %s disagrees with the reference", name, step, names[l])
					}
				}
				if step%64 == 0 {
					if got, want := s.policy().StateKey(), ref.Policy().StateKey(); got != want {
						t.Fatalf("%s step %d: policy state %s, reference %s", name, step, got, want)
					}
				}
			}
		}
	}
}

// TestResidencyBitsFollowTheHierarchy replays a seeded load/clflush/wbinvd/
// CAT mix on every model and checks the residency invariant throughout:
// each line's bits name exactly the sets holding it.
func TestResidencyBitsFollowTheHierarchy(t *testing.T) {
	for _, cfg := range Models() {
		c := NewCPU(cfg, 3)
		c.SetLowNoise(true)
		c.SetPrefetcher(true)
		pool := goldenPool(c)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20000; i++ {
			va := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(1000); {
			case r < 850:
				c.Load(va)
			case r < 990:
				c.CLFlush(va)
			case r < 995:
				c.WBInvd()
			default:
				if cfg.SupportsCAT {
					if err := c.SetCATWays(4 * rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if i%1000 == 0 {
				checkResidency(t, c)
			}
		}
		checkResidency(t, c)
	}
}
