// Package faulty injects deterministic, seeded faults into the learning
// pipeline's probing interfaces — the chaos-testing half of the resilience
// layer. A Plan describes the fault mix (transient errors, latency stalls,
// wrong-answer flips, replica death, a simulated crash); an Injector rolls
// the dice; wrappers interpose the injector on polca.Prober and
// learn.Teacher values without the wrapped code knowing.
//
// Determinism is the point: the decision for a probe is a hash of the plan
// seed, the probe's content, and that probe's per-content attempt ordinal —
// not wall-clock or a shared RNG stream — so the N-th execution of a given
// probe faults identically in every run regardless of goroutine
// interleaving, and a faulty soak run is exactly reproducible from its
// seed. A transient fault on attempt k does not recur on attempt k+1 unless
// the hash says so, which is what lets retry policies make progress.
package faulty

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
)

// Err is an injected transient fault. It implements the Transient marker
// polca.IsTransient looks for, so retry policies absorb it.
type Err struct {
	Kind string // "transient", "stall+err", "replica-death"
	Seq  int64  // injector-wide probe ordinal that faulted
}

func (e *Err) Error() string {
	return fmt.Sprintf("faulty: injected %s fault (probe %d)", e.Kind, e.Seq)
}

// Transient marks the fault retryable.
func (e *Err) Transient() bool { return true }

// ErrCrash is returned (permanently) once a plan's CrashAfter budget is
// exhausted: the injector simulates the process dying mid-learn. It is NOT
// transient — a crash must abort the run, which is what the checkpoint
// -resume pipeline recovers from.
var ErrCrash = errors.New("faulty: injected crash")

// Plan is one reproducible fault mix.
type Plan struct {
	Seed       int64         // hash seed; runs with equal seeds fault identically
	ErrRate    float64       // transient error probability per probe execution
	StallRate  float64       // latency stall probability per probe execution
	StallFor   time.Duration // stall length (default 2ms)
	FlipRate   float64       // wrong-answer probability per probe execution
	DieReplica int           // replica index that dies (-1: none)
	DieAfter   int64         // probes that replica answers before dying
	CrashAfter int64         // total executions before a simulated crash (0: never)
}

// DefaultPlan is an empty plan (no faults) with seed 1.
func DefaultPlan() Plan { return Plan{Seed: 1, StallFor: 2 * time.Millisecond, DieReplica: -1} }

// ParsePlan parses a -faults spec: comma-separated key=value fields.
//
//	seed=42            hash seed
//	err=0.05           transient-error rate
//	stall=0.01:5ms     stall rate and duration
//	flip=0.001         wrong-answer rate
//	die=1@500          replica 1 dies after 500 probes
//	crash=2000         simulated crash after 2000 executions
//
// An empty spec is the empty plan.
func ParsePlan(spec string) (Plan, error) {
	p := DefaultPlan()
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faulty: malformed field %q (want key=value)", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "err":
			p.ErrRate, err = parseRate(v)
		case "flip":
			p.FlipRate, err = parseRate(v)
		case "stall":
			rate, dur, cut := strings.Cut(v, ":")
			p.StallRate, err = parseRate(rate)
			if err == nil && cut {
				p.StallFor, err = time.ParseDuration(dur)
			}
		case "die":
			rep, after, cut := strings.Cut(v, "@")
			if !cut {
				return p, fmt.Errorf("faulty: malformed die spec %q (want replica@count)", v)
			}
			var r, a int64
			if r, err = strconv.ParseInt(rep, 10, 32); err == nil {
				a, err = strconv.ParseInt(after, 10, 64)
			}
			p.DieReplica, p.DieAfter = int(r), a
		case "crash":
			p.CrashAfter, err = strconv.ParseInt(v, 10, 64)
		default:
			return p, fmt.Errorf("faulty: unknown field %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("faulty: bad value for %s: %v", k, err)
		}
	}
	return p, nil
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if r < 0 || r > 1 {
		return 0, fmt.Errorf("rate %v out of [0,1]", r)
	}
	return r, nil
}

// String renders the plan back into spec form.
func (p Plan) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.ErrRate > 0 {
		parts = append(parts, fmt.Sprintf("err=%g", p.ErrRate))
	}
	if p.StallRate > 0 {
		parts = append(parts, fmt.Sprintf("stall=%g:%s", p.StallRate, p.StallFor))
	}
	if p.FlipRate > 0 {
		parts = append(parts, fmt.Sprintf("flip=%g", p.FlipRate))
	}
	if p.DieReplica >= 0 {
		parts = append(parts, fmt.Sprintf("die=%d@%d", p.DieReplica, p.DieAfter))
	}
	if p.CrashAfter > 0 {
		parts = append(parts, fmt.Sprintf("crash=%d", p.CrashAfter))
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.ErrRate == 0 && p.StallRate == 0 && p.FlipRate == 0 && p.DieReplica < 0 && p.CrashAfter == 0
}

// attemptShards stripes the per-content attempt counters.
const attemptShards = 64

// Injector rolls fault decisions for one plan. One injector may back any
// number of wrappers; its counters are shared so a plan-wide budget (e.g.
// CrashAfter) spans all of them. Injectors are safe for concurrent use.
type Injector struct {
	plan  Plan
	total atomic.Int64 // executions across all wrapped interfaces

	mu       [attemptShards]sync.Mutex
	attempts [attemptShards]map[uint64]int64 // per-content execution ordinals
}

// NewInjector builds an injector for the plan.
func NewInjector(plan Plan) *Injector {
	inj := &Injector{plan: plan}
	for i := range inj.attempts {
		inj.attempts[i] = make(map[uint64]int64)
	}
	return inj
}

// Plan returns the injector's plan.
func (inj *Injector) Plan() Plan { return inj.plan }

// nextAttempt returns the 0-based ordinal of this execution among all
// executions of the same content hash.
func (inj *Injector) nextAttempt(content uint64) int64 {
	sh := content % attemptShards
	inj.mu[sh].Lock()
	n := inj.attempts[sh][content]
	inj.attempts[sh][content] = n + 1
	inj.mu[sh].Unlock()
	return n
}

// roll produces a uniform-ish value in [0,1) from the plan seed, a content
// hash, a per-content attempt ordinal, and a per-decision salt (so the
// error, stall, and flip decisions of one execution are independent).
func (inj *Injector) roll(content uint64, attempt int64, salt uint64) float64 {
	x := uint64(inj.plan.Seed)*0x9E3779B97F4A7C15 ^ content ^ uint64(attempt)*0xBF58476D1CE4E5B9 ^ salt*0x94D049BB133111EB
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// hashBlocks hashes a probe's content.
func hashBlocks(q []blocks.Block) uint64 {
	h := fnv.New64a()
	for _, b := range q {
		h.Write([]byte(b))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// decision is the outcome of one roll of the plan against one execution.
type decision struct {
	err   error
	stall time.Duration
	flip  bool
	at    float64 // where in a profiled suffix a flip lands, as a fraction in [0,1)
}

// decide rolls the plan for one execution of content.
func (inj *Injector) decide(content uint64) decision {
	seq := inj.total.Add(1)
	if inj.plan.CrashAfter > 0 && seq > inj.plan.CrashAfter {
		return decision{err: ErrCrash}
	}
	attempt := inj.nextAttempt(content)
	var d decision
	if inj.plan.StallRate > 0 && inj.roll(content, attempt, 2) < inj.plan.StallRate {
		d.stall = inj.plan.StallFor
	}
	if inj.plan.ErrRate > 0 && inj.roll(content, attempt, 1) < inj.plan.ErrRate {
		d.err = &Err{Kind: "transient", Seq: seq}
		return d
	}
	if inj.plan.FlipRate > 0 && inj.roll(content, attempt, 3) < inj.plan.FlipRate {
		d.flip = true
		d.at = inj.roll(content, attempt, 4)
	}
	return d
}
