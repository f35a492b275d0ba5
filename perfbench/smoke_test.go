package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyRun(t *testing.T, workload string, trace, wrong bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: 3, seconds: 0.4, trace: trace, scale: 0.2, wrongExpected: wrong})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestMetricTablesMatchBenchmarkFile keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	check := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(file), len(table))
		}
		for i := range file {
			if file[i] != table[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %+v", kind, i, file[i], table[i])
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the command does not run", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that every named metric is printed with its unit
// and that the run is correct.
func TestEveryMetricEmitted(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, traced, d.Name, m, ok, d.Unit)
				}
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestWrongExpectedAnswerFails checks that the correctness gate fails a
// run whose expected answer is wrong.
func TestWrongExpectedAnswerFails(t *testing.T) {
	for _, w := range []string{"detect", "serve", "evolve"} {
		res := tinyRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expected answer passed the check (failed=%d)", w, res.Failed)
		}
	}
}

// TestExactCountsRepeat checks that the exact outputs repeat for a seed.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range []string{"detect", "serve", "evolve"} {
		a, b := tinyRun(t, w, false, false), tinyRun(t, w, false, false)
		for k, v := range a.exact {
			if b.exact[k] != v {
				t.Errorf("%s: exact %s is %s, then %s", w, k, v, b.exact[k])
			}
		}
	}
}
