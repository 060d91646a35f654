package polca

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
	"repro/internal/qstore"
)

// chunk splits words into batches of size sz, preserving order.
func chunk(words [][]int, sz int) [][][]int {
	var out [][][]int
	for len(words) > 0 {
		n := sz
		if n > len(words) {
			n = len(words)
		}
		out = append(out, words[:n])
		words = words[n:]
	}
	return out
}

// engineLeg is one oracle of the chunking comparison: an executor and the
// chunk size its query stream is cut into (1 = word by word through
// OutputQuery).
type engineLeg struct {
	name  string
	o     *Oracle
	chunk int
}

// ask streams words through the leg in its chunk size.
func (l engineLeg) ask(t *testing.T, words [][]int) [][]int {
	t.Helper()
	var out [][]int
	for _, ch := range chunk(words, l.chunk) {
		if l.chunk == 1 {
			ans, err := l.o.OutputQuery(context.Background(), ch[0])
			if err != nil {
				t.Fatalf("%s: word %v: %v", l.name, ch[0], err)
			}
			out = append(out, ans)
			continue
		}
		ans, err := l.o.OutputQueryBatch(context.Background(), ch)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		out = append(out, ans...)
	}
	return out
}

// TestBatchedOracleMatchesSerial streams the same words through the
// engine word by word, in chunks of 7 and all at once, on the compiled and
// the interpreted executor. Answers must match the ground-truth machine,
// and Stats and SaveSnapshot bytes must be identical across all six legs.
// The stream mixes extension words (suffix resume), in-batch
// prefix/extension dependencies, duplicate words (in-batch memo) and a
// small session cap (LRU evictions dropping parked positions), all under
// periodic determinism audits.
func TestBatchedOracleMatchesSerial(t *testing.T) {
	for _, c := range tenPolicies {
		t.Run(c.name, func(t *testing.T) {
			truth, err := mealy.FromPolicy(policy.MustNew(c.name, c.assoc), 0)
			if err != nil {
				t.Fatal(err)
			}
			words := qstore.Enumerate(policy.NumInputs(c.assoc), 4)[1:]
			// Duplicate a few words into the stream so batches carry
			// fully-known and in-batch-duplicate entries.
			stream := append(append([][]int{}, words...), words[3], words[len(words)/2], words[3])
			for _, cap := range []int{0, 6} {
				var legs []engineLeg
				for _, size := range []int{1, 7, len(stream)} {
					opts := []Option{WithSessionCap(cap), WithDeterminismChecks(3)}
					legs = append(legs,
						engineLeg{"compiled", NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)), opts...), size},
						engineLeg{"interpreted", NewOracle(NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)), opts...), size})
				}
				// The second pass replays the stream: it must be answered
				// from the recorded stores identically on every leg.
				for pass := 0; pass < 2; pass++ {
					for _, l := range legs {
						got := l.ask(t, stream)
						for i, w := range stream {
							want := truth.Run(w)
							for j := range want {
								if got[i][j] != want[j] {
									t.Fatalf("cap %d %s/%d: word %v answered %v, truth %v", cap, l.name, l.chunk, w, got[i], want)
								}
							}
						}
					}
					ref := legs[0]
					var refSnap bytes.Buffer
					if err := ref.o.SaveSnapshot(&refSnap, "s"); err != nil {
						t.Fatal(err)
					}
					for _, l := range legs[1:] {
						if ls, rs := l.o.Stats(), ref.o.Stats(); ls != rs {
							t.Fatalf("cap %d pass %d: %s/%d stats %+v, %s/%d stats %+v",
								cap, pass, l.name, l.chunk, ls, ref.name, ref.chunk, rs)
						}
						var snap bytes.Buffer
						if err := l.o.SaveSnapshot(&snap, "s"); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(snap.Bytes(), refSnap.Bytes()) {
							t.Fatalf("cap %d pass %d: %s/%d snapshot differs from %s/%d", cap, pass, l.name, l.chunk, ref.name, ref.chunk)
						}
					}
				}
			}
		})
	}
}

// TestBatchedNoMemoMatchesSerial: one batch over a shared oracle answers
// every word exactly like a fresh oracle per word, which has no memo to
// draw from — recorded prefixes and parked sessions change the cost, never
// the answers. A fresh oracle pays one probe and len(w) plus
// associativity per Evct accesses, with no memo hits.
func TestBatchedNoMemoMatchesSerial(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"SRRIP-HP", 4}, {"New1", 4}, {"PLRU", 8}} {
		t.Run(c.name, func(t *testing.T) {
			shared := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			words := qstore.Enumerate(policy.NumInputs(c.assoc), 3)[1:]
			got, err := shared.OutputQueryBatch(context.Background(), words)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range words {
				fresh := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
				want, err := fresh.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatalf("fresh %v: %v", w, err)
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("word %v: batched %v, fresh %v", w, got[i], want)
					}
				}
				accesses := len(w)
				for _, ip := range w {
					if ip == c.assoc {
						accesses += c.assoc
					}
				}
				if st := fresh.Stats(); st.MemoHits != 0 || st.Probes != 1 || st.Accesses != accesses {
					t.Fatalf("word %v: fresh oracle stats %+v, want 0 memo hits, 1 probe, %d accesses", w, st, accesses)
				}
			}
		})
	}
}

// TestEngineConcurrentCallers: several goroutines issue random batches and
// single words on one shared oracle. The engine serializes them per oracle,
// so no two words interleave their store, LRU and slab operations, and
// every answer matches the ground-truth machine. The session cap is small
// enough to evict, yet large enough (several parks per shard) that the
// batches resume from each other's parks. Run it under -race.
func TestEngineConcurrentCallers(t *testing.T) {
	truth, err := mealy.FromPolicy(policy.MustNew("New1", 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		p    *SimProber
	}{
		{"compiled", NewSimProber(policy.MustNew("New1", 4))},
		{"interpreted", NewInterpretedSimProber(policy.MustNew("New1", 4))},
	} {
		t.Run(leg.name, func(t *testing.T) {
			o := NewOracle(leg.p, WithSessionCap(32))
			var wg sync.WaitGroup
			start := make(chan struct{})
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					rng := rand.New(rand.NewSource(int64(g)))
					word := func() []int {
						w := make([]int, 1+rng.Intn(10))
						for j := range w {
							w[j] = rng.Intn(truth.NumInputs)
						}
						return w
					}
					for round := 0; round < 200; round++ {
						var words [][]int
						var got [][]int
						var err error
						if g%2 == 0 {
							words = [][]int{word()}
							var ans []int
							ans, err = o.OutputQuery(context.Background(), words[0])
							got = [][]int{ans}
						} else {
							for i := 0; i < 1+rng.Intn(16); i++ {
								words = append(words, word())
							}
							got, err = o.OutputQueryBatch(context.Background(), words)
						}
						if err != nil {
							errs <- err
							return
						}
						for i, w := range words {
							want := truth.Run(w)
							for j := range want {
								if got[i][j] != want[j] {
									t.Errorf("goroutine %d: word %v answered %v, truth %v", g, w, got[i], want)
									return
								}
							}
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// serialTeacher answers the learner's batches word by word through
// OutputQuery, the chunk-of-one reference for TestBatchedLearnEquivalence.
type serialTeacher struct{ *Oracle }

func (s serialTeacher) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	out := make([][]int, len(words))
	for i, w := range words {
		ans, err := s.OutputQuery(ctx, w)
		if err != nil {
			return nil, err
		}
		out[i] = ans
	}
	return out, nil
}

// TestBatchedLearnEquivalence runs the full learner end to end at a pinned
// prefetch width on the compiled executor, the interpreted executor, and a
// teacher that answers every batch word by word: the learned machines must
// be identical and the oracle counters bit-identical — the whole learning
// trajectory, not just individual queries, is preserved.
func TestBatchedLearnEquivalence(t *testing.T) {
	for _, name := range []string{"LRU", "SRRIP-HP", "New1"} {
		t.Run(name, func(t *testing.T) {
			opt := learn.Options{Depth: 1, BatchSize: 32}
			compiled := NewOracle(NewSimProber(policy.MustNew(name, 4)))
			interp := NewOracle(NewInterpretedSimProber(policy.MustNew(name, 4)))
			serial := NewOracle(NewSimProber(policy.MustNew(name, 4)))
			var machines [][]byte
			for _, teacher := range []learn.Teacher{compiled, interp, serialTeacher{serial}} {
				res, err := learn.Learn(context.Background(), teacher, opt)
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(res.Machine)
				if err != nil {
					t.Fatal(err)
				}
				machines = append(machines, js)
			}
			if !bytes.Equal(machines[0], machines[1]) || !bytes.Equal(machines[0], machines[2]) {
				t.Fatal("executors or chunkings produced different machine JSON")
			}
			if cs, is, ss := compiled.Stats(), interp.Stats(), serial.Stats(); cs != is || cs != ss {
				t.Fatalf("oracle stats diverged: compiled %+v, interpreted %+v, word by word %+v", cs, is, ss)
			}
		})
	}
}

// TestSessionSlabBounded: an interpreted oracle parks forked sessions in
// its session slab, and unpark must return every evicted session's slot.
// Streaming every word up to depth 4 twice at a small session cap, the
// answers must match the ground-truth machine, the occupied slots must
// equal the parked positions, and the slab must never grow past the
// parked budget plus the one slot a park takes before its eviction.
func TestSessionSlabBounded(t *testing.T) {
	for _, name := range []string{"New1", "SRRIP-HP"} {
		t.Run(name, func(t *testing.T) {
			truth, err := mealy.FromPolicy(policy.MustNew(name, 4), 0)
			if err != nil {
				t.Fatal(err)
			}
			o := NewOracle(NewInterpretedSimProber(policy.MustNew(name, 4)), WithSessionCap(6))
			budget := o.lruCap * o.out.Stripes()
			words := qstore.Enumerate(policy.NumInputs(4), 4)[1:]
			for pass := 0; pass < 2; pass++ {
				for _, w := range words {
					got, err := o.OutputQuery(context.Background(), w)
					if err != nil {
						t.Fatalf("word %v: %v", w, err)
					}
					want := truth.Run(w)
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("word %v answered %v, truth %v", w, got, want)
						}
					}
					parked := 0
					for _, l := range o.lru {
						parked += l.parked
					}
					if held := len(o.slab) - len(o.free); held != parked {
						t.Fatalf("after %v: slab holds %d sessions, %d positions parked", w, held, parked)
					}
					if len(o.slab) > budget+1 {
						t.Fatalf("after %v: slab has %d slots, budget %d parked positions", w, len(o.slab), budget)
					}
				}
			}
		})
	}
}
