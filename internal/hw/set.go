package hw

import "repro/internal/policy"

// lineSet is one materialized set of the simulated hierarchy. It follows
// the Definition 2.3 semantics of cache.Set exactly — a hit advances the
// policy on the hit way; a miss fills the first invalid way, observed by
// the policy as a hit on that way, and otherwise replaces the policy's
// victim — but its ways hold line records instead of block names. Whether
// a line is in the set is the line's residency bit for the set's level, and
// the record also keeps the way it occupies there, so a hit is a bit test
// plus a policy step, and an eviction hands back the victim's record with
// its bit already cleared.
//
// cache.Set stays the reference model: the differential test in
// set_test.go drives both through the same sequences.
type lineSet struct {
	ways   []*lineInfo   // nil = invalid way
	lvl    Level         // the set's level: li.res bit and li.way entry
	tab    *policy.Table // non-nil: compiled kernel, control state in tstate
	tstate int32
	pol    policy.Policy // interpreted path (tab == nil)
	leader LeaderKind    // role of an adaptive L3 set; Follower elsewhere
}

// newLineSet returns an empty set of level l driven by pol, with the
// policy in its initial control state (sets of the hierarchy start cold).
func newLineSet(pol policy.Policy, l Level) *lineSet {
	s := &lineSet{ways: make([]*lineInfo, pol.Assoc()), lvl: l, pol: pol}
	if t, ok := pol.(*policy.Table); ok {
		// The set's own state id is the control state; the (possibly
		// shared) table object is never stepped.
		s.tab, s.tstate = t, t.InitState()
	} else {
		pol.Reset()
	}
	return s
}

// access performs one access of li and returns whether it hit and the
// line it evicted, if any.
func (s *lineSet) access(li *lineInfo) (hit bool, victim *lineInfo) {
	if li.resident(s.lvl) {
		s.onHit(int(li.way[s.lvl]))
		return true, nil
	}
	for i, w := range s.ways {
		if w == nil {
			s.fill(i, li)
			s.onHit(i)
			return false, nil
		}
	}
	v := s.onMiss()
	victim = s.ways[v]
	victim.res &^= 1 << s.lvl
	s.fill(v, li)
	return false, victim
}

// fill places li in way i.
func (s *lineSet) fill(i int, li *lineInfo) {
	s.ways[i] = li
	li.res |= 1 << s.lvl
	li.way[s.lvl] = uint8(i)
}

// remove invalidates the resident line li (clflush, back-invalidation),
// leaving the replacement metadata untouched.
func (s *lineSet) remove(li *lineInfo) {
	s.ways[li.way[s.lvl]] = nil
	li.res &^= 1 << s.lvl
}

// flush invalidates every way (wbinvd), keeping the policy control state.
func (s *lineSet) flush() {
	for i, w := range s.ways {
		if w != nil {
			w.res &^= 1 << s.lvl
			s.ways[i] = nil
		}
	}
}

// onHit advances the control state on a hit of way i.
func (s *lineSet) onHit(i int) {
	if s.tab != nil {
		s.tstate, _ = s.tab.Step(s.tstate, i)
		return
	}
	s.pol.OnHit(i)
}

// onMiss advances the control state on an eviction and returns the victim
// way.
func (s *lineSet) onMiss() int {
	if s.tab != nil {
		next, v := s.tab.Step(s.tstate, len(s.ways))
		s.tstate = next
		return int(v)
	}
	return s.pol.OnMiss()
}

// policy exposes the set's replacement policy: a table view at the set's
// control state on the compiled path, the policy object otherwise.
func (s *lineSet) policy() policy.Policy {
	if s.tab != nil {
		return s.tab.At(s.tstate)
	}
	return s.pol
}
