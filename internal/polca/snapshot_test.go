package polca

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/learn"
	"repro/internal/policy"
)

// randomWords draws a reproducible query workload over the policy alphabet.
func randomWords(numIn, count int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	words := make([][]int, count)
	for i := range words {
		w := make([]int, 1+rng.Intn(12))
		for j := range w {
			w[j] = rng.Intn(numIn)
		}
		words[i] = w
	}
	return words
}

// TestSnapshotWarmOracleSkipsBackend: a warm oracle must answer every
// previously-asked word from the loaded store — zero probes, zero accesses
// — with answers identical to the cold oracle's.
func TestSnapshotWarmOracleSkipsBackend(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"New1", 4}} {
		t.Run(c.name, func(t *testing.T) {
			scope := "test:" + c.name
			cold := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			words := randomWords(cold.NumInputs(), 120, int64(11+c.assoc))
			want := make([][]int, len(words))
			for i, w := range words {
				out, err := cold.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}
			var buf bytes.Buffer
			if err := cold.SaveSnapshot(&buf, scope); err != nil {
				t.Fatal(err)
			}

			warm := NewOracle(NewSimProber(policy.MustNew(c.name, c.assoc)))
			if err := warm.LoadSnapshot(bytes.NewReader(buf.Bytes()), scope); err != nil {
				t.Fatal(err)
			}
			for i, w := range words {
				out, err := warm.OutputQuery(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out, want[i]) {
					t.Fatalf("warm oracle diverged on %v: %v vs %v", w, out, want[i])
				}
			}
			if st := warm.Stats(); st.Probes != 0 || st.Accesses != 0 {
				t.Errorf("warm oracle touched the backend: %+v", st)
			}

			// A word extending a recorded prefix resumes from the table
			// state the load stored at its node: only the new Ln symbol
			// does oracle work, one access.
			ext := append(append([]int(nil), words[0]...), 0)
			if _, err := warm.OutputQuery(context.Background(), ext); err != nil {
				t.Fatal(err)
			}
			if st := warm.Stats(); st.Probes != 1 || st.Accesses != 1 {
				t.Errorf("extension of a snapshotted word cost %d probes / %d accesses", st.Probes, st.Accesses)
			}
		})
	}
}

// checkStates fails unless every recorded node of o's output store holds
// the table state its prefix reaches, judged against the interpreted
// policy mk builds, run from reset over the prefix. It returns the number
// of nodes checked.
func checkStates(t *testing.T, o *Oracle, mk func() policy.Policy) int {
	t.Helper()
	n := o.prober.Assoc()
	checked := 0
	var walk func(node int32, prefix []int)
	walk = func(node int32, prefix []int) {
		for ip := 0; ip < o.out.Degree(); ip++ {
			c := o.out.Child(node, ip)
			if c < 0 {
				continue
			}
			w := append(prefix[:len(prefix):len(prefix)], ip)
			if o.out.Has(c) {
				pol := mk()
				for _, x := range w {
					if x < n {
						pol.OnHit(x)
					} else {
						pol.OnMiss()
					}
				}
				if got, want := o.sim.tab.KeyOf(o.out.Val(c).state), pol.StateKey(); got != want {
					t.Fatalf("node %v holds state %q, its prefix reaches %q", w, got, want)
				}
				checked++
			}
			walk(c, w)
		}
	}
	o.outMu.Lock()
	walk(0, nil)
	o.outMu.Unlock()
	return checked
}

// TestSnapshotWarmStartRestoresStates: after LoadSnapshot every recorded
// node of a simulator oracle holds the table state its prefix reaches, so
// a warm learn resumes its new words from the loaded nodes. Warmed by a
// depth-0 learn's snapshot, a depth-1 learn learns the cold learn's
// machine with the same learner statistics and fewer probes.
func TestSnapshotWarmStartRestoresStates(t *testing.T) {
	mk := func() policy.Policy { return policy.MustNew("SRRIP-HP", 4) }
	ctx := context.Background()
	seed := NewOracle(NewSimProber(mk()))
	if _, err := learn.Learn(ctx, seed, learn.Options{Depth: 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seed.SaveSnapshot(&buf, "s"); err != nil {
		t.Fatal(err)
	}
	cold := NewOracle(NewSimProber(mk()))
	warm := NewOracle(NewSimProber(mk()))
	if err := warm.LoadSnapshot(bytes.NewReader(buf.Bytes()), "s"); err != nil {
		t.Fatal(err)
	}
	if loaded, saved := checkStates(t, warm, mk), checkStates(t, seed, mk); loaded != saved {
		t.Fatalf("checked %d loaded nodes, the snapshot holds %d", loaded, saved)
	}
	var machines [][]byte
	var stats []learn.Stats
	for _, o := range []*Oracle{cold, warm} {
		res, err := learn.Learn(ctx, o, learn.Options{Depth: 1})
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
	if !bytes.Equal(machines[0], machines[1]) {
		t.Fatal("warm learn learned a different machine")
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("learner stats diverged: cold %+v, warm %+v", stats[0], stats[1])
	}
	cs, ws := cold.Stats(), warm.Stats()
	if ws.Probes == 0 || ws.Probes >= cs.Probes {
		t.Fatalf("warm learn sent %d probes, cold %d: want fewer, but some", ws.Probes, cs.Probes)
	}
	checkStates(t, warm, mk)
}

func TestSnapshotScopeMismatchRejected(t *testing.T) {
	cold := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := cold.OutputQuery(context.Background(), []int{4, 0, 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf, "sim:LRU-4"); err != nil {
		t.Fatal(err)
	}
	warm := NewOracle(NewSimProber(policy.MustNew("MRU", 4)))
	err := warm.LoadSnapshot(bytes.NewReader(buf.Bytes()), "sim:MRU-4")
	if err == nil || !strings.Contains(err.Error(), "recorded for") {
		t.Fatalf("scope mismatch not rejected: %v", err)
	}
	if st := warm.Stats(); st.MemoHits != 0 {
		t.Error("rejected snapshot left state behind")
	}
}

func TestSnapshotRejectsCorruptPayload(t *testing.T) {
	cold := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	for _, w := range randomWords(cold.NumInputs(), 30, 3) {
		if _, err := cold.OutputQuery(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf, "s"); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x20
	warm := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if err := warm.LoadSnapshot(bytes.NewReader(corrupt), "s"); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	truncated := data[:len(data)-7]
	if err := warm.LoadSnapshot(bytes.NewReader(truncated), "s"); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// Loading over an oracle that has already answered queries would
// overwrite answers it recorded itself; it must be refused.
func TestSnapshotLoadAfterQueriesRejected(t *testing.T) {
	cold := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := cold.OutputQuery(context.Background(), []int{4, 0}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.SaveSnapshot(&buf, "s"); err != nil {
		t.Fatal(err)
	}
	live := NewOracle(NewSimProber(policy.MustNew("LRU", 4)))
	if _, err := live.OutputQuery(context.Background(), []int{4, 0}); err != nil {
		t.Fatal(err)
	}
	if err := live.LoadSnapshot(bytes.NewReader(buf.Bytes()), "s"); err == nil {
		t.Fatal("load into a live oracle accepted")
	}
}
