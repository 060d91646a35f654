// Package synth synthesizes human-readable explanations of learned
// replacement policies (§5 of the paper): rule-based programs built from
// promotion, eviction, insertion, and normalization rules, the vocabulary
// cache designers use [21].
//
// The paper encodes a program template with holes in Sketch and asks a
// SyGuS solver for an instantiation satisfying the learned automaton's
// transition constraints φP. This reproduction searches the same rule
// grammar by enumerative counterexample-guided synthesis (CEGIS): candidate
// programs are executable policies, rejected quickly on accumulated witness
// traces and accepted only after an exact product-equivalence check against
// the learned machine — which yields the same guarantee as the paper's
// constraint encoding: a returned program behaves exactly like the learned
// policy.
//
// As in the paper, control states are per-line ages in 0..3; tree-structured
// global-state policies such as PLRU are outside the grammar and correctly
// fail to synthesize.
package synth

import (
	"fmt"
	"strings"

	"repro/internal/policy"
)

// MaxAge is the largest age value (2-bit ages, as in the paper's
// experiments: natural-number size bound 4).
const MaxAge = 3

// ageBits is the packed width of one age (policy.StatePacker).
const ageBits = 2

// SelfKind enumerates how a rule updates the age of the accessed or
// inserted line.
type SelfKind int

// Self-update kinds.
const (
	SelfKeep SelfKind = iota // leave the age unchanged
	SelfSet                  // age := C1
	SelfDecr                 // age := max(age-1, 0)
	SelfIfEq                 // if age == C1 { age := C2 } else { age := C3 }
)

// SelfUpdate is the self-update component of promotion/insertion rules.
type SelfUpdate struct {
	Kind       SelfKind
	C1, C2, C3 int
}

func (u SelfUpdate) apply(age int) int {
	switch u.Kind {
	case SelfKeep:
		return age
	case SelfSet:
		return u.C1
	case SelfDecr:
		if age > 0 {
			return age - 1
		}
		return 0
	default: // SelfIfEq
		if age == u.C1 {
			return u.C2
		}
		return u.C3
	}
}

func (u SelfUpdate) String() string {
	switch u.Kind {
	case SelfKeep:
		return "keep the line's age"
	case SelfSet:
		return fmt.Sprintf("set the line's age to %d", u.C1)
	case SelfDecr:
		return "decrement the line's age (saturating at 0)"
	default:
		return fmt.Sprintf("if the line's age is %d set it to %d, otherwise set it to %d", u.C1, u.C2, u.C3)
	}
}

// OthersKind enumerates how a rule updates the ages of the remaining lines.
type OthersKind int

// Others-update kinds.
const (
	OthersKeep     OthersKind = iota // leave other lines unchanged
	OthersIncrAll                    // increment every other line
	OthersIncrLess                   // increment other lines younger than the
	// accessed/evicted line's previous age
)

func (k OthersKind) apply(ages []int, self, oldSelfAge int) {
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
			if i != self && ages[i] < oldSelfAge && ages[i] < MaxAge {
				ages[i]++
			}
		}
	}
}

func (k OthersKind) String() string {
	switch k {
	case OthersKeep:
		return "leave the other lines unchanged"
	case OthersIncrAll:
		return "increase the age of every other line by 1"
	default:
		return "increase the age of every other line that was younger than it by 1"
	}
}

// EvictKind enumerates victim-selection rules.
type EvictKind int

// Eviction kinds.
const (
	EvictFirstEq EvictKind = iota // leftmost line with age == C
	EvictMaxLeft                  // leftmost line with maximal age
	EvictMinLeft                  // leftmost line with minimal age
)

// EvictRule selects the victim line.
type EvictRule struct {
	Kind EvictKind
	C    int
}

func (r EvictRule) choose(ages []int) int {
	switch r.Kind {
	case EvictFirstEq:
		for i, a := range ages {
			if a == r.C {
				return i
			}
		}
		// No line matches: fall back to the oldest line so the candidate
		// is still a total policy (it will be rejected by the traces).
		return argMax(ages)
	case EvictMaxLeft:
		return argMax(ages)
	default:
		return argMin(ages)
	}
}

func argMax(ages []int) int {
	m := maxOf(ages)
	for i, a := range ages {
		if a == m {
			return i
		}
	}
	return 0
}

func maxOf(ages []int) int {
	m := ages[0]
	for _, a := range ages {
		if a > m {
			m = a
		}
	}
	return m
}

func argMin(ages []int) int {
	m := ages[0]
	for _, a := range ages {
		if a < m {
			m = a
		}
	}
	for i, a := range ages {
		if a == m {
			return i
		}
	}
	return 0
}

func (r EvictRule) String() string {
	switch r.Kind {
	case EvictFirstEq:
		return fmt.Sprintf("select the first line, from the left, whose age is %d", r.C)
	case EvictMaxLeft:
		return "select the first line, from the left, with the largest age"
	default:
		return "select the first line, from the left, with the smallest age"
	}
}

// NormKind enumerates normalization rules.
type NormKind int

// Normalization kinds.
const (
	NormIdentity    NormKind = iota // no normalization
	NormAgeUntil                    // while no line has age C: increment ages
	NormResetUnless                 // if no line has age C: set ages to C
)

// NormRule is the normalization component, with flags selecting where in
// the hit/miss handlers it runs (the paper's template normalizes after a
// hit, before the eviction, and after the insertion).
type NormRule struct {
	Kind          NormKind
	C             int
	ExceptTouched bool // skip the just accessed/evicted line
	AfterHit      bool
	BeforeEvict   bool
	AfterMiss     bool
}

// apply normalizes ages; touched is the just accessed/evicted line, or -1
// in the pre-eviction position where no line is distinguished.
func (r NormRule) apply(ages []int, touched int) {
	if r.Kind == NormIdentity {
		return
	}
	except := -1
	if r.ExceptTouched {
		except = touched
	}
	has := func() bool {
		for _, a := range ages {
			if a == r.C {
				return true
			}
		}
		return false
	}
	switch r.Kind {
	case NormAgeUntil:
		for iter := 0; iter <= MaxAge && !has(); iter++ {
			for i := range ages {
				if i != except && ages[i] < MaxAge {
					ages[i]++
				}
			}
		}
	case NormResetUnless:
		if !has() {
			for i := range ages {
				if i != except {
					ages[i] = r.C
				}
			}
		}
	}
}

func (r NormRule) String() string {
	if r.Kind == NormIdentity {
		return "none"
	}
	except := ""
	if r.ExceptTouched {
		except = " except the just accessed/evicted line"
	}
	var rule string
	switch r.Kind {
	case NormAgeUntil:
		rule = fmt.Sprintf("while there is no line with age %d, increase the age of all lines%s by 1", r.C, except)
	default:
		rule = fmt.Sprintf("if there is no line with age %d, set the age of all lines%s to %d", r.C, except, r.C)
	}
	var when []string
	if r.AfterHit {
		when = append(when, "after a hit")
	}
	if r.BeforeEvict {
		when = append(when, "before an eviction")
	}
	if r.AfterMiss {
		when = append(when, "after an insertion")
	}
	if len(when) == 0 {
		return "none"
	}
	return rule + " (" + strings.Join(when, ", ") + ")"
}

// PromoteRule updates the control state on a hit.
type PromoteRule struct {
	Self   SelfUpdate
	Others OthersKind
}

// InsertRule updates the control state of the just evicted line.
type InsertRule struct {
	Self   SelfUpdate
	Others OthersKind
}

// Program is a complete rule-based policy explanation.
type Program struct {
	Assoc     int
	Init      []int
	Promote   PromoteRule
	Evict     EvictRule
	Insert    InsertRule
	Normalize NormRule
}

// Hit executes the template's hit handler on ages in place.
func (p *Program) Hit(ages []int, line int) {
	old := ages[line]
	ages[line] = p.Promote.Self.apply(old)
	p.Promote.Others.apply(ages, line, old)
	if p.Normalize.AfterHit {
		p.Normalize.apply(ages, line)
	}
}

// Miss executes the template's miss handler on ages in place and returns
// the victim line.
func (p *Program) Miss(ages []int) int {
	if p.Normalize.BeforeEvict {
		p.Normalize.apply(ages, -1)
	}
	idx := p.Evict.choose(ages)
	old := ages[idx]
	ages[idx] = p.Insert.Self.apply(old)
	p.Insert.Others.apply(ages, idx, old)
	if p.Normalize.AfterMiss {
		p.Normalize.apply(ages, idx)
	}
	return idx
}

// String renders the program in the bullet style of §8.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Initial control state: %v\n", p.Init)
	fmt.Fprintf(&sb, "Promote:   %s; %s.\n", p.Promote.Self, p.Promote.Others)
	fmt.Fprintf(&sb, "Evict:     %s.\n", p.Evict)
	fmt.Fprintf(&sb, "Insert:    %s; %s.\n", p.Insert.Self, p.Insert.Others)
	fmt.Fprintf(&sb, "Normalize: %s.\n", p.Normalize)
	return sb.String()
}

// RulePolicy makes a Program executable as a policy.Policy, which is how
// candidates are checked against learned machines (and how synthesized
// explanations can be replayed in the simulator).
type RulePolicy struct {
	prog *Program
	ages []int
}

// NewRulePolicy wraps prog as an executable policy.
func NewRulePolicy(prog *Program) *RulePolicy {
	p := &RulePolicy{prog: prog, ages: make([]int, prog.Assoc)}
	p.Reset()
	return p
}

// Name implements policy.Policy.
func (p *RulePolicy) Name() string { return "Synthesized" }

// Assoc implements policy.Policy.
func (p *RulePolicy) Assoc() int { return p.prog.Assoc }

// OnHit implements policy.Policy.
func (p *RulePolicy) OnHit(line int) { p.prog.Hit(p.ages, line) }

// OnMiss implements policy.Policy.
func (p *RulePolicy) OnMiss() int { return p.prog.Miss(p.ages) }

// Reset implements policy.Policy.
func (p *RulePolicy) Reset() { copy(p.ages, p.prog.Init) }

// StateKey implements policy.Policy.
func (p *RulePolicy) StateKey() string { return policy.AgesKey(p.ages) }

// PackState implements policy.StatePacker: 2 bits per age.
func (p *RulePolicy) PackState() (uint64, bool) { return policy.PackAges(p.ages, ageBits) }

// UnpackState implements policy.StatePacker.
func (p *RulePolicy) UnpackState(k uint64) { policy.UnpackAges(p.ages, k, ageBits) }

// Clone implements policy.Policy.
func (p *RulePolicy) Clone() policy.Policy {
	c := &RulePolicy{prog: p.prog, ages: make([]int, len(p.ages))}
	copy(c.ages, p.ages)
	return c
}

var _ policy.Policy = (*RulePolicy)(nil)
