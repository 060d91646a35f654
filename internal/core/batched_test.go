package core

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/cachequery"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/polca"
)

// hinted makes the learner prefetch 32-word chunks from an oracle, so the
// engine answers multi-word batches as it does for polcad's /v1/query; a
// simulator oracle alone hints 1 and keeps the learn serial.
type hinted struct{ *polca.Oracle }

func (hinted) BatchHint() int { return 8 }

// wordByWord answers the learner's batches one word at a time through
// OutputQuery: the chunk-of-one reference for the engine.
type wordByWord struct{ hinted }

func (w wordByWord) OutputQueryBatch(ctx context.Context, words [][]int) ([][]int, error) {
	out := make([][]int, len(words))
	for i, word := range words {
		ans, err := w.OutputQuery(ctx, word)
		if err != nil {
			return nil, err
		}
		out[i] = ans
	}
	return out, nil
}

// TestLearnSimulatedBatchedMatchesSerial is the end-to-end chunking check
// of the oracle's query engine at the pipeline level: a table2-style
// learning run — L* rounds plus the conformance sweep — through the oracle
// core.NewSimOracle builds must produce byte-identical machine JSON and
// bit-identical oracle counters whether the learner's batches reach the
// engine whole (at GOMAXPROCS 1 and 8) or word by word. Both legs hint the
// same prefetch width, so they see the same query stream.
func TestLearnSimulatedBatchedMatchesSerial(t *testing.T) {
	for _, name := range []string{"MRU", "SRRIP-HP", "New1"} {
		t.Run(name, func(t *testing.T) {
			run := func(procs int, serial bool) ([]byte, polca.Stats) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				oracle, _, _, err := NewSimOracle(name, 4, SimOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var teacher learn.Teacher = hinted{oracle}
				if serial {
					teacher = wordByWord{hinted{oracle}}
				}
				res, err := learn.Learn(context.Background(), teacher, learn.Options{Depth: 1})
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(res.Machine)
				if err != nil {
					t.Fatal(err)
				}
				return js, oracle.Stats()
			}
			js, ss := run(1, true)
			for _, procs := range []int{1, 8} {
				jb, bs := run(procs, false)
				if !bytes.Equal(js, jb) {
					t.Errorf("GOMAXPROCS=%d: batched run produced different machine JSON", procs)
				}
				if bs != ss {
					t.Errorf("GOMAXPROCS=%d: oracle stats diverged: batched %+v, word by word %+v", procs, bs, ss)
				}
			}
		})
	}
}

// TestLearnHardwareBatched runs the hardware pipeline over a replica pool,
// where the oracle groups each miss's eviction probes into one fan-out,
// and requires the same machine as the single-frontend pipeline.
func TestLearnHardwareBatched(t *testing.T) {
	request := func(replicas int) HardwareRequest {
		return HardwareRequest{
			CPU:              hw.NewCPU(testCPU(), 9),
			NewCPU:           func() *hw.CPU { return hw.NewCPU(testCPU(), 9) },
			Replicas:         replicas,
			Target:           cachequery.Target{Level: hw.L1, Set: 5},
			Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:            learn.Options{Depth: 1},
			DeterminismEvery: 64,
		}
	}
	serial, err := LearnHardware(context.Background(), request(1))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := LearnHardware(context.Background(), request(4))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := batched.Machine.Equivalent(serial.Machine); !eq {
		t.Fatalf("batched hardware learning diverged from serial, ce=%v", ce)
	}
	if batched.Machine.NumStates != 8 {
		t.Errorf("learned %d states, want 8 (PLRU-4)", batched.Machine.NumStates)
	}
}
