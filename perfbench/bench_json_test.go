package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

type metric struct{ Name, Unit string }

// TestBenchmarkJSONMatchesTheProgram keeps the repository's
// BENCHMARK.json in step with what the benchmark prints: the same
// workloads, and every metric under the same name and unit.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}

	var e2e []metric
	for _, m := range endToEnd {
		e2e = append(e2e, metric{m.name, m.unit})
	}
	if !slices.Equal(metricKeys(doc.EndToEnd), metricKeys(e2e)) {
		t.Errorf("end_to_end = %v, program prints %v", doc.EndToEnd, e2e)
	}

	// The traced child's layers plus what the parent adds.
	var layers []metric
	for k := range smallTracedRun(t, 0).Layers {
		layers = append(layers, metric{k, layerUnit(k)})
	}
	for _, k := range []string{"trace.untraced_run_s", "trace.overhead_s", "sim.dispatch_ns"} {
		layers = append(layers, metric{k, layerUnit(k)})
	}
	if got, want := metricKeys(doc.PerLayer), metricKeys(layers); !slices.Equal(got, want) {
		t.Errorf("per_layer does not match the traced run's metrics:\n json    %v\n program %v", got, want)
	}
}

// metricKeys renders metrics as sorted "name unit" strings.
func metricKeys(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name + " " + m.Unit
	}
	sort.Strings(out)
	return out
}
