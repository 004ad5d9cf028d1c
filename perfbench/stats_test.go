package main

import (
	"encoding/json"
	"os"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The percentile rule: nearest rank, and a percentile counts as measured
// only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
		valid  bool
	}{
		{1000, 99, 990, 10, true},
		{999, 99, 990, 9, false},
		{100, 90, 90, 10, true},
		{99, 90, 90, 9, false},
		{4, 50, 2, 2, false},
		{2400, 99, 2376, 24, true},
		{1, 99, 1, 0, false},
	}
	for _, c := range cases {
		got := percentile(ramp(c.n), c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.n || got.Valid() != c.valid {
			t.Errorf("p%g of 1..%d = %+v (valid %v), want value %g, %d beyond, valid %v",
				c.p, c.n, got, got.Valid(), c.value, c.beyond, c.valid)
		}
	}
	if got := percentile(nil, 50); got.N != 0 || got.Value != 0 {
		t.Errorf("p50 of nothing = %+v, want zero", got)
	}
}

// A failed item is charged the failure latency, so it lands above every
// successful one in the percentiles.
func TestFailedItemsCountOverTheLimit(t *testing.T) {
	r := &runResult{failLatency: 10e9}
	for i := 0; i < 99; i++ {
		r.items = append(r.items, item{latency: 1e6, solved: true})
	}
	r.items = append(r.items, item{latency: 1e3, failed: true})
	lat := r.latencies()
	if got := lat[len(lat)-1]; got != 10000 {
		t.Fatalf("failed item latency = %g ms, want the 10000 ms limit", got)
	}
	if got := percentile(lat, 99).Value; got != 1 {
		t.Fatalf("p99 = %g ms, want 1 (the failure is the single sample beyond)", got)
	}
}

// BENCHMARK.json and the code name the same metrics with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i])
		}
	}
}
