package polca

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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

			// A word extending a recorded prefix costs one session: the
			// known prefix is fast-forwarded by pure feeding (no eviction
			// probes) and only the new symbol does real oracle work.
			ext := append(append([]int(nil), words[0]...), 0)
			if _, err := warm.OutputQuery(context.Background(), ext); err != nil {
				t.Fatal(err)
			}
			if st := warm.Stats(); st.Probes != 1 || st.Accesses > len(ext)+c.assoc {
				t.Errorf("extension of a snapshotted word cost %d probes / %d accesses", st.Probes, st.Accesses)
			}
		})
	}
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

// Loading over an oracle that has already answered queries would zero
// parked-session decorations the LRU lists still reference; it must be
// refused.
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
