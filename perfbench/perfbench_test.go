package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
)

type benchFile struct {
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

// tiny shrinks a workload to a smoke-test size: two kernels at a tenth
// of their size.
func tiny(w *Workload) *Workload {
	t := *w
	t.Kernels = w.Kernels[:2]
	t.Scale = 0.1
	return &t
}

// TestEveryWorkloadEmitsEveryMetric runs each workload of BENCHMARK.json
// at a tiny size, untraced and traced, and checks that the run is
// correct and reports exactly the metrics BENCHMARK.json names, with
// their units, and no end-to-end metric reads 0.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	wls, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := sortedKeys(wls); !slices.Equal(got, listed) {
		t.Fatalf("workloads.json has %v, BENCHMARK.json lists %v", got, listed)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bench.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, name := range listed {
		for _, traced := range []bool{false, true} {
			w := tiny(wls[name])
			cfg := runConfig{Seed: 1, Seconds: 0.2, Trace: traced, Workers: 2,
				OutDir: t.TempDir(), SetupReps: 1, MinRequests: 40}
			var res *Result
			if w.Kind == "compile" {
				res, err = runCompile(w, cfg, io.Discard)
			} else {
				res, err = runServe(w, cfg, io.Discard)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for m, unit := range want[traced] {
				got, ok := res.Metrics[m]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", name, traced, m, got.Unit, unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[traced][m]; !ok {
					t.Errorf("%s traced=%v: metric %s not in BENCHMARK.json", name, traced, m)
				}
			}
		}
	}
}
