package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachequery"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/polca"
	"repro/internal/policy"
	"repro/internal/synth"
)

func testCPU() hw.CPUConfig {
	return hw.CPUConfig{
		Name:       "core-test",
		Arch:       "Test",
		L1:         hw.LevelConfig{Assoc: 4, Slices: 1, SetsPerSlice: 16, Policy: "PLRU", HitLatency: 4, LatencySigma: 0.5},
		L2:         hw.LevelConfig{Assoc: 4, Slices: 1, SetsPerSlice: 64, Policy: "New1", HitLatency: 12, LatencySigma: 1},
		L3:         hw.LevelConfig{Assoc: 8, Slices: 2, SetsPerSlice: 256, Policy: "New2", HitLatency: 40, LatencySigma: 3},
		MemLatency: 190, MemSigma: 15,
	}
}

func TestLearnSimulated(t *testing.T) {
	res, err := LearnSimulated(context.Background(), SimRequest{
		Policy: "MRU",
		Assoc:  4,
		Learn:  learn.Options{Depth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates != 14 || res.Policy != "MRU" {
		t.Errorf("result %+v", res)
	}
	if res.OracleStats.Probes == 0 || res.LearnStats.OutputQueries == 0 {
		t.Error("stats not collected")
	}
	if _, err := LearnSimulated(context.Background(), SimRequest{
		Policy: "nope",
		Assoc:  4,
		Learn:  learn.Options{},
	}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestLearnHardwareWithDefaultReset(t *testing.T) {
	res, err := LearnHardware(context.Background(), HardwareRequest{
		CPU:              hw.NewCPU(testCPU(), 9),
		Target:           cachequery.Target{Level: hw.L1, Set: 5},
		Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
		Learn:            learn.Options{Depth: 1},
		DeterminismEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.NumStates != 8 {
		t.Errorf("learned %d states, want 8 (PLRU-4)", res.Machine.NumStates)
	}
	if res.Reset.Name() != "F+R" {
		t.Errorf("reset %q, want default F+R", res.Reset.Name())
	}
	truth, err := GroundTruthAfterReset(policy.MustNew("PLRU", 4), res.Reset)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := res.Machine.Equivalent(truth); !eq {
		t.Errorf("learned machine differs, ce=%v", ce)
	}
}

func TestLearnHardwareTriesResetCandidates(t *testing.T) {
	// The first candidate (F+R) is invalid for New1; LearnHardware must
	// fall through to the synchronizing sequence and succeed. New1 is
	// installed at the L1 here so the probes need no cross-level
	// filtering, keeping the test fast; the filtered L2 path is covered
	// by internal/cachequery's TestLearnNew1FromTinyHardwareL2.
	cfg := testCPU()
	cfg.L1.Policy = "New1"
	pol := policy.MustNew("New1", 4)
	candidates := append([]cachequery.Reset{cachequery.FlushRefill(4)}, ResetCandidatesFor(pol)...)
	res, err := LearnHardware(context.Background(), HardwareRequest{
		CPU:              hw.NewCPU(cfg, 9),
		NewCPU:           func() *hw.CPU { return hw.NewCPU(cfg, 9) },
		Target:           cachequery.Target{Level: hw.L1, Set: 7},
		Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
		Resets:           candidates,
		Learn:            learn.Options{Depth: 1, MaxStates: 1000},
		DeterminismEvery: 2, // catch the invalid reset quickly
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reset.Name() == "F+R" {
		t.Error("learning claimed success with the invalid F+R reset")
	}
	truth, err := GroundTruthAfterReset(pol, res.Reset)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := res.Machine.Equivalent(truth); !eq {
		t.Errorf("learned machine differs from New1, ce=%v", ce)
	}
}

// TestLearnHardwareParallelMatchesSerial runs the same request through the
// serial pipeline and through the concurrent membership-query engine (a
// 4-replica CPU pool) and requires trace-equivalent machines.
func TestLearnHardwareParallelMatchesSerial(t *testing.T) {
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
	parallel, err := LearnHardware(context.Background(), request(4))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := parallel.Machine.Equivalent(serial.Machine); !eq {
		t.Fatalf("parallel learning diverged from serial, ce=%v", ce)
	}
	if parallel.Machine.NumStates != 8 {
		t.Errorf("learned %d states, want 8 (PLRU-4)", parallel.Machine.NumStates)
	}
	if parallel.Frontend.Executed == 0 {
		t.Error("replica frontend stats not aggregated")
	}
}

// TestLearnHardwareTreeLearner drives the full hardware pipeline with the
// discrimination-tree learner, serial and on the replica engine: both must
// match the L* result and the post-reset ground truth, and the tree must ask
// fewer output queries.
func TestLearnHardwareTreeLearner(t *testing.T) {
	request := func(algo learn.Algo, replicas int) HardwareRequest {
		return HardwareRequest{
			CPU:              hw.NewCPU(testCPU(), 9),
			NewCPU:           func() *hw.CPU { return hw.NewCPU(testCPU(), 9) },
			Replicas:         replicas,
			Target:           cachequery.Target{Level: hw.L1, Set: 5},
			Backend:          cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:            learn.Options{Algo: algo, Depth: 1},
			DeterminismEvery: 64,
		}
	}
	tree, err := LearnHardware(context.Background(), request(learn.AlgoTree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Machine.NumStates != 8 {
		t.Errorf("tree learned %d states, want 8 (PLRU-4)", tree.Machine.NumStates)
	}
	truth, err := GroundTruthAfterReset(policy.MustNew("PLRU", 4), tree.Reset)
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := tree.Machine.Equivalent(truth); !eq {
		t.Fatalf("tree machine differs from ground truth, ce=%v", ce)
	}
	lstar, err := LearnHardware(context.Background(), request(learn.AlgoLStar, 1))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := tree.Machine.Equivalent(lstar.Machine); !eq {
		t.Fatalf("tree and L* machines differ, ce=%v", ce)
	}
	if tree.LearnStats.OutputQueries >= lstar.LearnStats.OutputQueries {
		t.Errorf("tree asked %d output queries, L* %d — no query win on the hardware pipeline",
			tree.LearnStats.OutputQueries, lstar.LearnStats.OutputQueries)
	}
	parallel, err := LearnHardware(context.Background(), request(learn.AlgoTree, 4))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := parallel.Machine.Equivalent(tree.Machine); !eq {
		t.Fatalf("parallel tree learning diverged from serial, ce=%v", ce)
	}
}

func TestLearnHardwareAllResetsFail(t *testing.T) {
	// An undersized state budget makes every candidate fail.
	_, err := LearnHardware(context.Background(), HardwareRequest{
		CPU:     hw.NewCPU(testCPU(), 9),
		Target:  cachequery.Target{Level: hw.L1, Set: 1},
		Backend: cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
		Learn:   learn.Options{Depth: 1, MaxStates: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "every reset candidate failed") {
		t.Errorf("err = %v", err)
	}
}

func TestLearnHardwareRejectsCATWithoutSupport(t *testing.T) {
	_, err := LearnHardware(context.Background(), HardwareRequest{
		CPU:     hw.NewCPU(testCPU(), 9),
		Target:  cachequery.Target{Level: hw.L3, Set: 0},
		Backend: cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
		CATWays: 4,
	})
	if err == nil {
		t.Error("CAT accepted on a CPU without support")
	}
}

func TestResetCandidatesFor(t *testing.T) {
	// New1 has a findable synchronizing sequence plus the F+R fallback.
	cands := ResetCandidatesFor(policy.MustNew("New1", 4))
	if len(cands) != 2 {
		t.Fatalf("%d candidates", len(cands))
	}
	if len(cands[0].Content) != 4 {
		t.Error("first candidate has no verified content")
	}
	// FIFO has no synchronizing sequence: only F+R remains.
	cands = ResetCandidatesFor(policy.MustNew("FIFO", 4))
	if len(cands) != 1 || cands[0].Name() != "F+R" {
		t.Errorf("FIFO candidates = %v", cands)
	}
}

func TestGroundTruthAfterResetWithoutFlush(t *testing.T) {
	// A non-flush reset must converge from placeholder dirty content.
	pol := policy.MustNew("PLRU", 4)
	rr := ResetCandidatesFor(pol)[0]
	noFlush := cachequery.Reset{
		FlushFirst: false,
		Sequence:   append(append([]string{}, rr.Sequence...), rr.Sequence...),
		Content:    rr.Content,
	}
	if _, err := GroundTruthAfterReset(pol, noFlush); err != nil {
		t.Fatal(err)
	}
}

func TestExplainDelegates(t *testing.T) {
	m, _ := mealy.FromPolicy(policy.MustNew("FIFO", 4), 0)
	res, err := Explain(m, synth.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program == nil {
		t.Error("no program returned")
	}
}

// TestWarmStartSimulated: a warm-started re-learn of a published policy
// must replay recorded answers from disk — bit-identical machine, the
// exact same learner trajectory, and >= 90% fewer backend probes (in the
// deterministic simulator setting, exactly zero).
func TestWarmStartSimulated(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
	}{{"LRU", 4}, {"SRRIP-HP", 4}} {
		t.Run(c.name, func(t *testing.T) {
			snap := filepath.Join(t.TempDir(), "oracle.qs")
			cold, err := LearnSimulated(context.Background(), SimRequest{
				Policy:   c.name,
				Assoc:    c.assoc,
				Learn:    learn.Options{Depth: 1},
				Snapshot: SnapshotOptions{SavePath: snap},
			})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := LearnSimulated(context.Background(), SimRequest{
				Policy:   c.name,
				Assoc:    c.assoc,
				Learn:    learn.Options{Depth: 1},
				Snapshot: SnapshotOptions{WarmPath: snap},
			})
			if err != nil {
				t.Fatal(err)
			}
			cm, wm := cold.Machine, warm.Machine
			if cm.NumStates != wm.NumStates || cm.Init != wm.Init ||
				!reflect.DeepEqual(cm.Next, wm.Next) || !reflect.DeepEqual(cm.Out, wm.Out) {
				t.Error("warm-started machine differs from the cold one")
			}
			cs, ws := cold.LearnStats, warm.LearnStats
			if cs.OutputQueries != ws.OutputQueries || cs.TestWords != ws.TestWords || cs.Rounds != ws.Rounds {
				t.Errorf("warm trajectory diverged: cold %+v, warm %+v", cs, ws)
			}
			if 10*warm.OracleStats.Probes > cold.OracleStats.Probes {
				t.Errorf("warm start saved too little: %d probes cold, %d warm",
					cold.OracleStats.Probes, warm.OracleStats.Probes)
			}
		})
	}
}

// TestWarmStartScopeGuard: a snapshot recorded for one policy must be
// refused when warm-starting another.
func TestWarmStartScopeGuard(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "oracle.qs")
	if _, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "LRU",
		Assoc:    4,
		Learn:    learn.Options{Depth: 1},
		Snapshot: SnapshotOptions{SavePath: snap},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "MRU",
		Assoc:    4,
		Learn:    learn.Options{Depth: 1},
		Snapshot: SnapshotOptions{WarmPath: snap},
	})
	if err == nil || !strings.Contains(err.Error(), "recorded for") {
		t.Fatalf("cross-policy warm start not rejected: %v", err)
	}
}

// TestWarmStartHardware drives snapshot persistence through the full
// hardware pipeline on the toy-sized test CPU: the warm run must learn
// the identical machine while executing almost no fresh MBL queries.
func TestWarmStartHardware(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "hw.qs")
	req := func(s SnapshotOptions) HardwareRequest {
		return HardwareRequest{
			CPU:      hw.NewCPU(testCPU(), 7),
			Target:   cachequery.Target{Level: hw.L1, Set: 0},
			Backend:  cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
			Learn:    learn.Options{Depth: 1, MaxStates: 64},
			Snapshot: s,
		}
	}
	cold, err := LearnHardware(context.Background(), req(SnapshotOptions{SavePath: snap}))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := LearnHardware(context.Background(), req(SnapshotOptions{WarmPath: snap}))
	if err != nil {
		t.Fatal(err)
	}
	if eq, ce := warm.Machine.Equivalent(cold.Machine); !eq {
		t.Fatalf("warm hardware machine differs, ce=%v", ce)
	}
	if 10*warm.OracleStats.Probes > cold.OracleStats.Probes {
		t.Errorf("warm hardware run probed too much: %d cold, %d warm",
			cold.OracleStats.Probes, warm.OracleStats.Probes)
	}
}

// TestCheckpointCadenceNeedsSavePath: a checkpoint cadence with nowhere to
// write checkpoints is refused before the first probe, on both pipelines,
// instead of running without checkpoints.
func TestCheckpointCadenceNeedsSavePath(t *testing.T) {
	snap := SnapshotOptions{CheckpointEvery: 100}
	_, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "LRU",
		Assoc:    4,
		Learn:    learn.Options{Depth: 1},
		Snapshot: snap,
	})
	if err == nil || !strings.Contains(err.Error(), "SavePath") {
		t.Errorf("simulator learn with CheckpointEvery and no SavePath: err = %v", err)
	}
	cpu := hw.NewCPU(testCPU(), 9)
	_, err = LearnHardware(context.Background(), HardwareRequest{
		CPU:      cpu,
		Target:   cachequery.Target{Level: hw.L1, Set: 5},
		Backend:  cachequery.BackendOptions{MaxBlocks: 12, Reps: 3, EvictRounds: 1, CalibrationSamples: 21},
		Learn:    learn.Options{Depth: 1},
		Snapshot: snap,
	})
	if err == nil || !strings.Contains(err.Error(), "SavePath") {
		t.Errorf("hardware learn with CheckpointEvery and no SavePath: err = %v", err)
	}
	if n := cpu.LoadCount(); n != 0 {
		t.Errorf("hardware learn issued %d loads before refusing the options", n)
	}
}

// TestLearnSimulatedKernelBitIdentical is the end-to-end compiled↔interpreted
// guarantee the kernel rides on: learning the same policy with the compiled
// kernel's engine (LearnSimulated's default) and through the interpreted
// reference prober (polca.NewInterpretedSimProber, which its oracle answers
// on the reset-rooted probe path) produces byte-identical model JSON and
// identical learner statistics. The oracle counters differ by design: the
// two paths count their own probes and accesses.
func TestLearnSimulatedKernelBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
		algo  learn.Algo
	}{
		{"New1", 4, learn.AlgoLStar},
		{"SRRIP-HP", 4, learn.AlgoTree},
	} {
		opt := learn.Options{Depth: 1, Algo: c.algo}
		compiled, err := LearnSimulated(context.Background(), SimRequest{
			Policy: c.name,
			Assoc:  c.assoc,
			Learn:  opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := polca.NewOracle(polca.NewInterpretedSimProber(policy.MustNew(c.name, c.assoc)))
		res, err := learn.Learn(context.Background(), oracle, opt)
		if err != nil {
			t.Fatal(err)
		}
		interp := &SimResult{Machine: res.Machine, LearnStats: res.Stats}
		var cj, ij bytes.Buffer
		if err := compiled.Machine.Save(&cj); err != nil {
			t.Fatal(err)
		}
		if err := interp.Machine.Save(&ij); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cj.Bytes(), ij.Bytes()) {
			t.Errorf("%s-%d/%s: compiled and interpreted model JSON differ", c.name, c.assoc, c.algo)
		}
		cs, is := compiled.LearnStats, interp.LearnStats
		cs.Duration, is.Duration = 0, 0
		if !reflect.DeepEqual(cs, is) {
			t.Errorf("%s-%d/%s: learner stats diverged: %+v vs %+v", c.name, c.assoc, c.algo, cs, is)
		}
	}
}

// TestWriteFileAtomicKeepsPreviousFileOnFailure: a write that fails part
// way leaves the previous file byte-identical and no temp file behind; a
// successful write replaces it with the requested mode.
func TestWriteFileAtomicKeepsPreviousFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, 0o644, writeString("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		io.WriteString(w, "part")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "good" {
		t.Fatalf("previous file after failed writes = %q, %v; want %q", got, err, "good")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
		t.Fatalf("failed writes left temp files %v", tmps)
	}
	if err := WriteFileAtomic(path, 0o644, writeString("better")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "better" || info.Mode().Perm() != 0o644 {
		t.Fatalf("replaced file = %q mode %v, want %q mode 0644", got, info.Mode().Perm(), "better")
	}
}
