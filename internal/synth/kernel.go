package synth

import "repro/internal/policy"

// This file is the batched evaluation kernel of the parallel CEGIS search:
// a structure-of-arrays stepper that runs *blocks of candidate programs* in
// lockstep through a shared witness trace, replacing the per-candidate
// interpreted matches walk. Ages live in one flat []uint8 matrix (lane l
// occupies ages[l*n:(l+1)*n]), surviving lanes are kept in a compacted
// index list, and the hot loop allocates nothing: one contiguous block per
// worker instead of a heap object per candidate.
//
// Stage 1 batches over initial age vectors (the rules are shared by the
// whole block); stage 2 batches over promotion rules (the skeleton is
// shared). Both are exact ports of Program.Hit/Program.Miss on uint8 lanes:
// a lane survives a witness iff matches() accepts the equivalent Program.

// laneBlock is the reusable per-worker SoA scratch: candidate ages plus the
// compacted list of still-alive lane indices.
type laneBlock struct {
	ages []uint8
	live []int32
}

func (bk *laneBlock) reset(lanes, n int) {
	need := lanes * n
	if cap(bk.ages) < need {
		bk.ages = make([]uint8, need)
	} else {
		bk.ages = bk.ages[:need]
	}
	if cap(bk.live) < lanes {
		bk.live = make([]int32, lanes)
	} else {
		bk.live = bk.live[:lanes]
	}
	for l := range bk.live {
		bk.live[l] = int32(l)
	}
}

// seedLanes is the shared symbol-0 state of a stage-1 (evict, norm-class)
// pair: the init vectors whose first victim matches the eviction-only
// witness, with their ages as of the first victim check (after the
// BeforeEvict normalization, before the insertion). The first victim does
// not depend on the insert rule, so this work is computed once per
// (evict, class) and forked across all 18 insert rules.
type seedLanes struct {
	inits []int32
	ages  []uint8 // len(inits) * n
}

// stage1Seeds filters the full init list down to the lanes whose symbol-0
// victim under (ev, cls) equals the eviction-only witness's first output.
func stage1Seeds(g *grammar, ev EvictRule, cls NormRule, want0 int) seedLanes {
	n := g.n
	var out seedLanes
	row := make([]uint8, n)
	for i := range g.inits {
		copy(row, g.initFlat[i*n:(i+1)*n])
		if cls.BeforeEvict {
			normU8(cls, row, -1)
		}
		if chooseU8(ev, row) != want0 {
			continue
		}
		out.inits = append(out.inits, int32(i))
		out.ages = append(out.ages, row...)
	}
	return out
}

// stage1Continue resumes the seed lanes of one (evict, norm-class) pair
// under a concrete insert rule: it finishes symbol 0 (insertion plus
// AfterMiss normalization) and steps the remaining eviction-only symbols,
// returning the surviving init indices in ascending order.
func stage1Continue(bk *laneBlock, g *grammar, seeds seedLanes, ev EvictRule, ins InsertRule, cls NormRule, w witness) []int32 {
	n := g.n
	lanes := len(seeds.inits)
	if lanes == 0 {
		return nil
	}
	bk.reset(lanes, n)
	copy(bk.ages, seeds.ages)
	live := bk.live
	v0 := w.want[0]
	for _, l := range live {
		row := bk.ages[int(l)*n : int(l)*n+n]
		old := row[v0]
		row[v0] = selfU8(ins.Self, old)
		othersU8(ins.Others, row, v0, old)
		if cls.AfterMiss {
			normU8(cls, row, v0)
		}
	}
	for i := 1; i < len(w.word); i++ { // every symbol is Evct
		want := w.want[i]
		k := 0
		for _, l := range live {
			row := bk.ages[int(l)*n : int(l)*n+n]
			if cls.BeforeEvict {
				normU8(cls, row, -1)
			}
			v := chooseU8(ev, row)
			if v != want {
				continue // lane dies: wrong victim
			}
			old := row[v]
			row[v] = selfU8(ins.Self, old)
			othersU8(ins.Others, row, v, old)
			if cls.AfterMiss {
				normU8(cls, row, v)
			}
			live[k] = l
			k++
		}
		live = live[:k]
		if k == 0 {
			return nil
		}
	}
	out := make([]int32, len(live))
	for j, l := range live {
		out[j] = seeds.inits[l]
	}
	return out
}

// stage2Batch steps promotion lanes [0, lanes) of one skeleton through
// every witness in traces and returns the surviving lane indices in
// ascending order. Lane pl encodes the promotion rule
// (selves[pl/len(others)], others[pl%len(others)]), matching the serial
// enumeration order.
//
// order gives the traversal order over traces and kills accumulates how
// many lanes each witness rejected — the caller keeps both per worker and
// re-sorts order by kill count between blocks, so the most discriminating
// witnesses run first. Filtering is a conjunction over the witness set, so
// the surviving lanes are identical in any order; only the walk length
// changes.
func stage2Batch(bk *laneBlock, g *grammar, initRow []uint8, ev EvictRule, ins InsertRule, nr NormRule, lanes int, traces []witness, order []int32, kills []int64) []int32 {
	n := g.n
	no := len(g.others)
	bk.reset(lanes, n)
	live := bk.live
	for _, oi := range order {
		w := traces[oi]
		before := len(live)
		// Candidate ages restart at the skeleton's init for every witness.
		for _, l := range live {
			copy(bk.ages[int(l)*n:int(l)*n+n], initRow)
		}
		for i, in := range w.word {
			if in < n { // hit: the promotion rule differs per lane
				if w.want[i] != policy.Bottom {
					kills[oi] += int64(before)
					return nil // no candidate can match this witness
				}
				for _, l := range live {
					row := bk.ages[int(l)*n : int(l)*n+n]
					old := row[in]
					pl := int(l)
					row[in] = selfU8(g.selves[pl/no], old)
					othersU8(g.others[pl%no], row, in, old)
					if nr.AfterHit {
						normU8(nr, row, in)
					}
				}
				continue
			}
			// Miss: the skeleton rules are shared by every lane.
			want := w.want[i]
			k := 0
			for _, l := range live {
				row := bk.ages[int(l)*n : int(l)*n+n]
				if nr.BeforeEvict {
					normU8(nr, row, -1)
				}
				v := chooseU8(ev, row)
				if v != want {
					continue
				}
				old := row[v]
				row[v] = selfU8(ins.Self, old)
				othersU8(ins.Others, row, v, old)
				if nr.AfterMiss {
					normU8(nr, row, v)
				}
				live[k] = l
				k++
			}
			live = live[:k]
			if k == 0 {
				kills[oi] += int64(before)
				return nil
			}
		}
		kills[oi] += int64(before - len(live))
	}
	return live
}

// The uint8 rule ports below mirror SelfUpdate.apply, OthersKind.apply,
// EvictRule.choose and NormRule.apply exactly (including the FirstEq
// fallback to the oldest line and the bounded NormAgeUntil iteration), so
// batched and interpreted filtering accept identical candidate sets.

func selfU8(u SelfUpdate, age uint8) uint8 {
	switch u.Kind {
	case SelfKeep:
		return age
	case SelfSet:
		return uint8(u.C1)
	case SelfDecr:
		if age > 0 {
			return age - 1
		}
		return 0
	default: // SelfIfEq
		if age == uint8(u.C1) {
			return uint8(u.C2)
		}
		return uint8(u.C3)
	}
}

func othersU8(k OthersKind, ages []uint8, self int, old uint8) {
	switch k {
	case OthersKeep:
	case OthersIncrAll:
		for i := range ages {
			if i != self && ages[i] < MaxAge {
				ages[i]++
			}
		}
	case OthersIncrLess:
		for i := range ages {
			if i != self && ages[i] < old && ages[i] < MaxAge {
				ages[i]++
			}
		}
	}
}

func chooseU8(r EvictRule, ages []uint8) int {
	switch r.Kind {
	case EvictFirstEq:
		c := uint8(r.C)
		for i, a := range ages {
			if a == c {
				return i
			}
		}
		return argMaxU8(ages)
	case EvictMaxLeft:
		return argMaxU8(ages)
	default:
		return argMinU8(ages)
	}
}

func argMaxU8(ages []uint8) int {
	idx, m := 0, ages[0]
	for i, a := range ages {
		if a > m {
			idx, m = i, a
		}
	}
	return idx
}

func argMinU8(ages []uint8) int {
	idx, m := 0, ages[0]
	for i, a := range ages {
		if a < m {
			idx, m = i, a
		}
	}
	return idx
}

func hasU8(ages []uint8, c uint8) bool {
	for _, a := range ages {
		if a == c {
			return true
		}
	}
	return false
}

func normU8(r NormRule, ages []uint8, touched int) {
	if r.Kind == NormIdentity {
		return
	}
	except := -1
	if r.ExceptTouched {
		except = touched
	}
	c := uint8(r.C)
	switch r.Kind {
	case NormAgeUntil:
		for iter := 0; iter <= MaxAge && !hasU8(ages, c); iter++ {
			for i := range ages {
				if i != except && ages[i] < MaxAge {
					ages[i]++
				}
			}
		}
	case NormResetUnless:
		if !hasU8(ages, c) {
			for i := range ages {
				if i != except {
					ages[i] = c
				}
			}
		}
	}
}
