package cachequery

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// fullVote is the reference majority: every repetition runs, and the first
// access whose hits are exactly half the repetitions is a tie.
func fullVote(hits [][]bool, reps, nProf int) ([]cache.Outcome, error) {
	out := make([]cache.Outcome, nProf)
	for i := 0; i < nProf; i++ {
		v := 0
		for r := 0; r < reps; r++ {
			if hits[r][i] {
				v++
			}
		}
		if v*2 == reps {
			return nil, &InconclusiveError{Index: i, Hits: v, Reps: reps}
		}
		out[i] = cache.Outcome(v*2 > reps)
	}
	return out, nil
}

// decidedAfter is the number of repetitions after which every access has a
// strict majority of reps one way (reps when some access never does).
func decidedAfter(hits [][]bool, reps, nProf int) int {
	for d := 1; d <= reps; d++ {
		decided := true
		for i := 0; i < nProf; i++ {
			v := 0
			for r := 0; r < d; r++ {
				if hits[r][i] {
					v++
				}
			}
			if v*2 <= reps && (d-v)*2 <= reps {
				decided = false
			}
		}
		if decided {
			return d
		}
	}
	return reps
}

// TestSequentialVoteMatchesFullVote scripts the per-repetition hit/miss
// classification of every profiled access — exhaustively where there are
// at most 2^16 scripts, by seeded sampling beyond — for 1 to 9 repetitions
// and 1 to 4 profiled accesses. The early-stopped vote must return the full
// vote's outcomes or the same InconclusiveError, and must run exactly the
// repetitions after which every verdict is fixed: never more than the full
// vote, and only 2 of 3 when the first two agree.
func TestSequentialVoteMatchesFullVote(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := &Backend{threshold: 0.5}
	for reps := 1; reps <= 9; reps++ {
		for nProf := 1; nProf <= 4; nProf++ {
			bitsN := reps * nProf
			scripts := uint64(1) << bitsN
			exhaustive := bitsN <= 16
			if !exhaustive {
				scripts = 20000
			}
			hits := make([][]bool, reps)
			for r := range hits {
				hits[r] = make([]bool, nProf)
			}
			for s := uint64(0); s < scripts; s++ {
				code := s
				if !exhaustive {
					code = rng.Uint64()
				}
				for r := 0; r < reps; r++ {
					for i := 0; i < nProf; i++ {
						hits[r][i] = code>>(r*nProf+i)&1 == 1
					}
				}
				calls := 0
				lats := make([]float64, nProf)
				got, gotErr := b.vote(context.Background(), reps, nProf, func() ([]float64, error) {
					for i := range lats {
						lats[i] = 1 // above the threshold: a miss
						if hits[calls][i] {
							lats[i] = 0
						}
					}
					calls++
					return lats, nil
				})
				want, wantErr := fullVote(hits, reps, nProf)
				if !reflect.DeepEqual(gotErr, wantErr) || (wantErr == nil && !reflect.DeepEqual(got, want)) {
					t.Fatalf("reps %d, %d profiled, script %v: got %v, %v; full vote %v, %v",
						reps, nProf, hits, got, gotErr, want, wantErr)
				}
				if wantCalls := decidedAfter(hits, reps, nProf); calls != wantCalls {
					t.Fatalf("reps %d, %d profiled, script %v: ran %d repetitions, want %d",
						reps, nProf, hits, calls, wantCalls)
				}
				if reps == 3 && reflect.DeepEqual(hits[0], hits[1]) && calls != 2 {
					t.Fatalf("script %v: the first two repetitions agree, yet %d ran", hits, calls)
				}
			}
		}
	}
}
