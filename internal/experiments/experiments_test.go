package experiments

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/cachequery"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/learn"
	"repro/internal/mealy"
	"repro/internal/policy"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"A", "BB"}}
	tbl.Append("xxx", "y")
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"T\n", "A", "BB", "xxx", "y"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[string]string{
		"90ms":   "0.090s",
		"2m3s":   "2m 3.00s",
		"1h2m3s": "1h 2m 3s",
	}
	for in, want := range cases {
		d, err := time.ParseDuration(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmtDuration(d); got != want {
			t.Errorf("fmtDuration(%s) = %q, want %q", in, got, want)
		}
	}
}

func TestTable2RowLearnsAndVerifies(t *testing.T) {
	row := RunTable2Row(context.Background(), "LRU", 4, Table2Config{})
	if !row.Verified || row.States != 24 || row.Err != "" {
		t.Errorf("row = %+v", row)
	}
	bad := RunTable2Row(context.Background(), "NOPE", 4, Table2Config{})
	if bad.Err == "" {
		t.Error("unknown policy accepted")
	}
}

func TestTable2RowSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	cold := RunTable2Row(context.Background(), "LRU", 4, Table2Config{Learn: learn.Options{Depth: 1}, SnapshotDir: dir})
	if !cold.Verified || cold.Err != "" {
		t.Fatalf("cold row = %+v", cold)
	}
	if _, err := os.Stat(core.SnapshotPathInDir(dir, "LRU", 4)); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	warm := RunTable2Row(context.Background(), "LRU", 4, Table2Config{Learn: learn.Options{Depth: 1}, SnapshotDir: dir})
	if !warm.Verified || warm.Err != "" {
		t.Fatalf("warm row = %+v", warm)
	}
	warm.Learn.Duration, cold.Learn.Duration = 0, 0
	if warm.Learn != cold.Learn || warm.States != cold.States {
		t.Errorf("warm trajectory diverged: cold %+v, warm %+v", cold, warm)
	}
}

func TestTable2SpecsCoverPaperPolicies(t *testing.T) {
	want := map[string]bool{"FIFO": false, "LRU": false, "PLRU": false, "MRU": false,
		"LIP": false, "SRRIP-HP": false, "SRRIP-FP": false}
	for _, s := range Table2Full() {
		delete(want, s.Policy)
	}
	for missing := range want {
		t.Errorf("Table2Full misses %s", missing)
	}
}

func TestTable3MatchesModels(t *testing.T) {
	var sb strings.Builder
	Table3Table().Render(&sb)
	out := sb.String()
	for _, want := range []string{"Haswell", "Skylake", "Kaby Lake", "New1", "PLRU", "2048", "1024"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}

func TestTable4JobsQuickAndFull(t *testing.T) {
	quick := Table4Jobs(true)
	full := Table4Jobs(false)
	if len(quick) >= len(full) {
		t.Errorf("quick %d jobs, full %d", len(quick), len(full))
	}
	// The quick list must include the Haswell L3 failure case and the
	// Skylake levels.
	var haswellL3, skylakeL2 bool
	for _, j := range quick {
		if j.Model.Arch == "Haswell" && j.Level == hw.L3 && j.Expected == "" {
			haswellL3 = true
		}
		if j.Model.Arch == "Skylake" && j.Level == hw.L2 && j.Expected == "New1" {
			skylakeL2 = true
		}
	}
	if !haswellL3 || !skylakeL2 {
		t.Errorf("quick job list incomplete: haswellL3=%v skylakeL2=%v", haswellL3, skylakeL2)
	}
}

func TestIdentifyPolicy(t *testing.T) {
	// A PLRU machine rooted at its F+R state must be identified as PLRU
	// and nothing else.
	rst := cachequery.FlushRefill(4)
	truth, err := core.GroundTruthAfterReset(policy.MustNew("PLRU", 4), rst)
	if err != nil {
		t.Fatal(err)
	}
	if got := identifyPolicy(truth, rst, 4); got != "PLRU" {
		t.Errorf("identified %q, want PLRU", got)
	}
	// A machine nothing matches.
	bogus := mealy.New(1, 5)
	for a := 0; a < 5; a++ {
		bogus.Out[0][a] = 0 // even Ln inputs "evict", matching no policy
	}
	if got := identifyPolicy(bogus, rst, 4); got != "Unknown" {
		t.Errorf("identified bogus machine as %q", got)
	}
}

func TestContentPermutation(t *testing.T) {
	perm, ok := contentPermutation(
		[]blocks.Block{"B", "A", "C"},
		[]blocks.Block{"A", "B", "C"})
	if !ok || perm[0] != 1 || perm[1] != 0 || perm[2] != 2 {
		t.Errorf("perm = %v ok=%v", perm, ok)
	}
	if _, ok := contentPermutation([]blocks.Block{"X"}, []blocks.Block{"A"}); ok {
		t.Error("mismatched contents accepted")
	}
}

func TestTable5RowFIFOAndPLRU(t *testing.T) {
	fifo := RunTable5Row("FIFO")
	if fifo.Program == nil || fifo.Template != "Simple" || fifo.States != 4 {
		t.Errorf("FIFO row = %+v", fifo)
	}
	plru := RunTable5Row("PLRU")
	if plru.Program != nil || plru.Err == "" {
		t.Errorf("PLRU row = %+v", plru)
	}
}

func TestRunFigure1Report(t *testing.T) {
	report, err := RunFigure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CacheQuery", "Polca", "learned 2 control states",
		"trace-equivalent to LRU", "digraph", "Synthesized explanation"} {
		if !strings.Contains(report, want) {
			t.Errorf("figure 1 report missing %q", want)
		}
	}
}

func TestThrashQueryShape(t *testing.T) {
	q := thrashQuery(4)
	if q.ProfiledCount() != 2*(4+4) {
		t.Errorf("profiled %d accesses", q.ProfiledCount())
	}
	if len(q.Blocks()) != 8 {
		t.Errorf("working set of %d blocks", len(q.Blocks()))
	}
}

func TestDefaultLeaderSampleContainsBothLeaderKinds(t *testing.T) {
	model := hw.Skylake()
	sample := DefaultLeaderSample(model)
	var thrash, resist int
	for _, s := range sample {
		switch model.LeaderRule(0, s) {
		case hw.LeaderThrashable:
			thrash++
		case hw.LeaderResistant:
			resist++
		}
	}
	if thrash == 0 || resist == 0 {
		t.Errorf("sample has %d thrashable and %d resistant leaders", thrash, resist)
	}
}

func TestBaselinesShape(t *testing.T) {
	rows, err := RunBaselines(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	inScope := map[string]bool{"FIFO": true, "LRU": true, "PLRU": true}
	for _, r := range rows {
		if r.PermOK != inScope[r.Policy] {
			t.Errorf("%s: permutation baseline in-scope=%v, want %v", r.Policy, r.PermOK, inScope[r.Policy])
		}
		if r.FingerMatch != r.Policy {
			t.Errorf("%s: fingerprinted as %q", r.Policy, r.FingerMatch)
		}
	}
	var sb strings.Builder
	BaselinesTable(rows).Render(&sb)
	if !strings.Contains(sb.String(), "out of scope") {
		t.Error("baselines table missing out-of-scope rows")
	}
}

func TestLeaderScanSmall(t *testing.T) {
	model := hw.Skylake()
	res, err := RunLeaderScan(context.Background(), model, []int{0, 1, 62}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != 3 {
		t.Errorf("classified %d/3 correctly: %+v", res.Correct, res.Classified)
	}
	if !res.FormulaHolds {
		t.Error("XOR formula violated")
	}
	var sb strings.Builder
	LeaderScanTable(res).Render(&sb)
	if !strings.Contains(sb.String(), "thrash-susceptible") {
		t.Error("scan table missing classification")
	}
}
