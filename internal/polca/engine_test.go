package polca

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
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

// TestBatchedOracleMatchesSerial streams the same words word by word, in
// chunks of 7 and all at once through the compiled engine and through the
// interpreted prober, which answers on the reset-rooted probe path.
// Answers must match the ground-truth machine and SaveSnapshot bytes must
// be identical across all six legs; Stats must be identical across the
// chunk sizes of each executor. The stream mixes extension words (suffix
// resume), in-batch prefix/extension dependencies and duplicate words
// (in-batch memo), all under periodic determinism audits.
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
			var legs []engineLeg
			for _, size := range []int{1, 7, len(stream)} {
				legs = append(legs,
					engineLeg{"compiled", NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)), WithDeterminismChecks(3)), size},
					engineLeg{"interpreted", NewOracle(NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)), WithDeterminismChecks(3)), size})
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
								t.Fatalf("%s/%d: word %v answered %v, truth %v", l.name, l.chunk, w, got[i], want)
							}
						}
					}
				}
				var refSnap bytes.Buffer
				if err := legs[0].o.SaveSnapshot(&refSnap, "s"); err != nil {
					t.Fatal(err)
				}
				for i, l := range legs[2:] {
					// legs[i] is the same executor at the previous chunk size.
					if ls, rs := l.o.Stats(), legs[i].o.Stats(); ls != rs {
						t.Fatalf("pass %d: %s/%d stats %+v, %s/%d stats %+v",
							pass, l.name, l.chunk, ls, legs[i].name, legs[i].chunk, rs)
					}
				}
				for _, l := range legs[1:] {
					var snap bytes.Buffer
					if err := l.o.SaveSnapshot(&snap, "s"); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(snap.Bytes(), refSnap.Bytes()) {
						t.Fatalf("pass %d: %s/%d snapshot differs from %s/%d", pass, l.name, l.chunk, legs[0].name, legs[0].chunk)
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
// single words on one shared oracle, on the compiled engine and on the
// interpreted prober's probe path. Both serialize them per oracle, so no
// two words interleave their store operations or probes, and every answer
// matches the ground-truth machine. Run it under -race.
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
			o := NewOracle(leg.p)
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

// hinted makes the learner prefetch 32-word chunks from an oracle: a
// simulator oracle hints 1, which would keep the learn serial, but the
// engine must still answer the multi-word batches polcad's /v1/query and
// polcaload -words send.
type hinted struct{ *Oracle }

func (hinted) BatchHint() int { return 8 }

// serialTeacher answers the learner's batches word by word through
// OutputQuery, the chunk-of-one reference for TestBatchedLearnEquivalence.
type serialTeacher struct{ hinted }

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
// prefetch width on the compiled engine, on the interpreted prober's probe
// path, and on a compiled teacher that answers every batch word by word:
// the learned machines, the learner's statistics and the snapshots must be
// identical — the whole learning trajectory, not just individual queries,
// is preserved. The two compiled oracles' counters must be identical too;
// the probe path counts its own probes and accesses.
func TestBatchedLearnEquivalence(t *testing.T) {
	for _, name := range []string{"LRU", "SRRIP-HP", "New1"} {
		t.Run(name, func(t *testing.T) {
			compiled := NewOracle(NewSimProber(policy.MustNew(name, 4)))
			interp := NewOracle(NewInterpretedSimProber(policy.MustNew(name, 4)))
			serial := NewOracle(NewSimProber(policy.MustNew(name, 4)))
			var machines, snaps [][]byte
			var stats []learn.Stats
			for _, teacher := range []learn.Teacher{hinted{compiled}, hinted{interp}, serialTeacher{hinted{serial}}} {
				res, err := learn.Learn(context.Background(), teacher, learn.Options{Depth: 1})
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(res.Machine)
				if err != nil {
					t.Fatal(err)
				}
				machines = append(machines, js)
				res.Stats.Duration = 0
				stats = append(stats, res.Stats)
			}
			for _, o := range []*Oracle{compiled, interp, serial} {
				var buf bytes.Buffer
				if err := o.SaveSnapshot(&buf, "s"); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, buf.Bytes())
			}
			for i := 1; i < 3; i++ {
				if !bytes.Equal(machines[0], machines[i]) {
					t.Fatalf("teacher %d learned a different machine JSON", i)
				}
				if !reflect.DeepEqual(stats[0], stats[i]) {
					t.Fatalf("learner stats diverged: %+v vs teacher %d %+v", stats[0], i, stats[i])
				}
				if !bytes.Equal(snaps[0], snaps[i]) {
					t.Fatalf("teacher %d recorded a different snapshot", i)
				}
			}
			if cs, ss := compiled.Stats(), serial.Stats(); cs != ss {
				t.Fatalf("oracle stats diverged: batched %+v, word by word %+v", cs, ss)
			}
		})
	}
}
