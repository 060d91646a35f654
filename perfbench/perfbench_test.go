package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/learn"
)

var (
	_ learn.BatchTeacher = (*tracedTeacher)(nil)
	_ learn.BatchHinter  = (*tracedTeacher)(nil)
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCataloguesMatchBenchmarkJSON keeps the metric catalogues and
// BENCHMARK.json in step, name for name and unit for unit.
func TestCataloguesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: catalogue %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

// TestTinyWorkloadsEmitEveryMetric runs every workload at its smallest
// size, untraced and traced, and checks that each run verifies its outputs
// and emits every metric BENCHMARK.json names, with its unit.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 1, budget: time.Millisecond, trace: trace, tiny: true}
			res, notes, err := execute(context.Background(), w.Name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", w.Name, trace, res.Correct, res.Attempted, res.Failed, notes)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTracedTeacherKeepsLearnStats checks that wrapping the oracle in the
// traced teacher changes neither the learned machine nor any learner
// counter.
func TestTracedTeacherKeepsLearnStats(t *testing.T) {
	for _, p := range []policySpec{{"LRU", 4}, {"New1", 4}} {
		learnWith := func(wrap bool) *learn.Result {
			oracle, _, _, err := core.NewSimOracle(p.name, p.assoc, core.SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var teacher learn.Teacher = oracle
			if wrap {
				teacher = &tracedTeacher{inner: oracle}
			}
			res, err := learn.Learn(context.Background(), teacher, simLearnOptions)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		bare, traced := learnWith(false), learnWith(true)
		if !sameLearn(bare, traced) {
			t.Errorf("%v: traced learn differs: stats %+v vs %+v", p, traced.Stats, bare.Stats)
		}
	}
}
