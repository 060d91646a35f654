package polca

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// Transient faults and the probe retry policy. Real hardware backends fail
// in ways that have nothing to do with the policy under learning — a
// measurement interrupted by the OS, a flaky core, a remote worker timing
// out. Such failures are marked transient (Transienter) and absorbed by
// bounded exponential backoff around the probe execution instead of
// aborting a multi-hour learn; everything else (nondeterminism, protocol
// violations, cancellation) propagates immediately.

// Transienter marks an error as transient: retrying the same operation may
// succeed. internal/faulty's injected errors and cachequery's replica
// failures implement it.
type Transienter interface {
	Transient() bool
}

// IsTransient reports whether any error in err's chain declares itself
// transient. Context cancellation and deadline errors are never transient —
// retrying a cancelled probe would fight the caller's cancel.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t Transienter
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy bounds the transient-failure retry loop around one probe
// execution: up to MaxAttempts total executions, sleeping
// BaseDelay·2^attempt (capped at MaxDelay) with up to 50% deterministic
// jitter between them. The zero policy retries nothing.
type RetryPolicy struct {
	MaxAttempts int           // total executions, including the first; <= 1 disables retries
	BaseDelay   time.Duration // first backoff sleep
	MaxDelay    time.Duration // backoff cap
	Seed        int64         // jitter seed, so soak runs are reproducible
}

// DefaultRetryPolicy absorbs short transient glitches without materially
// delaying a healthy run: 6 attempts, 1ms/2ms/4ms/8ms/16ms backoff. The
// budget is sized for soak-length runs: a learn takes on the order of 10⁴
// probe executions, so at a sustained 5% transient-error rate the chance
// that any probe exhausts all six attempts stays around 10⁻⁴ per run
// (0.05⁶·10⁴), where four attempts would fail roughly one run in twenty.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 250 * time.Millisecond, Seed: 1}

// enabled reports whether the policy retries at all.
func (rp RetryPolicy) enabled() bool { return rp.MaxAttempts > 1 }

// backoff returns the sleep before retry attempt (0-based: the sleep after
// the attempt-th failed execution), with deterministic jitter.
func (rp RetryPolicy) backoff(attempt int) time.Duration {
	d := rp.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt && d < rp.MaxDelay; i++ {
		d *= 2
	}
	if rp.MaxDelay > 0 && d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	// Jitter up to +50%, seeded per (policy seed, attempt) so identical
	// runs sleep identically — reproducibility extends to the fault path.
	rng := rand.New(rand.NewSource(rp.Seed + int64(attempt)))
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// Do runs fn, retrying transient failures under the policy. Every absorbed
// failure increments retries (the oracle's Stats.Retries source). Backoff
// sleeps respect ctx: a cancel during a sleep returns ctx.Err() at once.
func (rp RetryPolicy) Do(ctx context.Context, retries *atomic.Int64, fn func() (cache.Outcome, error)) (cache.Outcome, error) {
	oc, err := fn()
	if err == nil || !rp.enabled() || !IsTransient(err) {
		return oc, err
	}
	for attempt := 0; attempt < rp.MaxAttempts-1; attempt++ {
		if retries != nil {
			retries.Add(1)
		}
		t := time.NewTimer(rp.backoff(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return cache.Miss, ctx.Err()
		case <-t.C:
		}
		oc, err = fn()
		if err == nil || !IsTransient(err) {
			return oc, err
		}
	}
	return cache.Miss, err
}
