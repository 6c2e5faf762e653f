package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"l2bm/internal/exp"
)

// TestBenchmarkJSONMatchesCode keeps the benchmark's declaration at the
// repository root in step with the workloads and metrics this program
// emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, code has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), code emits %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndMetrics)
	check("per_layer", decl.PerLayer, perLayerMetrics)
}

func TestDigestsCoverEveryWorkload(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(d[w.name]) != pinnedPoints {
			t.Errorf("digests.json pins %d points of %s, want %d", len(d[w.name]), w.name, pinnedPoints)
		}
		for i, p := range d[w.name] {
			if len(p.Digest) != 64 || (w.spec != nil && p.Frames <= 0) {
				t.Errorf("%s point %d: bad entry %+v", w.name, i, p)
			}
		}
	}
}

// The digest pins the simulated outcome, not the work done to reach it.
func TestResultDigestIgnoresCostCounters(t *testing.T) {
	base := &exp.Result{Policy: "L2BM", FlowsStarted: 3, FlowsCompleted: 3, LossyDrops: 7}
	want, err := resultDigest([]*exp.Result{base})
	if err != nil {
		t.Fatal(err)
	}
	cheaper := *base
	cheaper.Events, cheaper.PoolGets, cheaper.PoolLive, cheaper.FluidSteps, cheaper.AuditChecks = 1, 2, 3, 4, 5
	if got, _ := resultDigest([]*exp.Result{&cheaper}); got != want {
		t.Error("a cost counter changed the digest")
	}
	if base.Events != 0 || cheaper.Events != 1 {
		t.Error("resultDigest modified its input")
	}
	changed := *base
	changed.LossyDrops++
	if got, _ := resultDigest([]*exp.Result{&changed}); got == want {
		t.Error("a simulated statistic did not change the digest")
	}
	if got, _ := resultDigest([]*exp.Result{base}, []byte("col")); got == want {
		t.Error("the columnar bytes did not change the digest")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v", got)
	}
}
