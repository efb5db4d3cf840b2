package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each prints a correct result with exactly the metrics its
// mode promises.
func TestShortRuns(t *testing.T) {
	for _, w := range []string{"paper-sweep", "advisor-serve", "cluster-churn"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				p := params{seed: 3, dur: time.Second, traced: trace == "1", setups: 1}
				out, err := workloads[w](context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if p.traced {
					defs = perLayer
				}
				res, err := result(out, defs)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v; failures: %v", res, out.errs)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got := res.Metrics[d.name]; got.Unit != d.unit {
						t.Errorf("%s: unit %q, want %q", d.name, got.Unit, d.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names the
// workloads and metrics this program measures, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(b.Workloads), len(workloads))
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, %d measured", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: listed %s (%s), measured %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
