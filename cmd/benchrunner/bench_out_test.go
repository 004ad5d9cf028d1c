package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchDeltaNamesDroppedBenchmarks: the delta report walks the fresh
// results, so a benchmark that exists only in the baseline file must get a
// line of its own instead of vanishing from the report.
func TestBenchDeltaNamesDroppedBenchmarks(t *testing.T) {
	t.Chdir(t.TempDir())
	base := benchReport{Schema: "bench-medians/v1", Results: []benchResult{
		{Package: "./internal/sat", Name: "BenchmarkKept", NsPerOp: 100, BytesPerOp: 10, AllocsPerOp: 1},
		{Package: "./internal/sat", Name: "BenchmarkDropped", NsPerOp: 200, BytesPerOp: 20, AllocsPerOp: 2},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_1.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
	cur := benchReport{Results: []benchResult{
		{Package: "./internal/sat", Name: "BenchmarkKept", NsPerOp: 100, BytesPerOp: 10, AllocsPerOp: 1},
		{Package: "./internal/sat", Name: "BenchmarkAdded", NsPerOp: 50},
	}}
	var out bytes.Buffer
	printBenchDelta(&out, &cur, "BENCH_2.json")
	got := out.String()
	lineOf := func(name string) string {
		for _, l := range strings.Split(got, "\n") {
			if strings.Contains(l, name) {
				return l
			}
		}
		t.Fatalf("no line for %s in the delta report:\n%s", name, got)
		return ""
	}
	if !strings.Contains(got, "delta vs BENCH_1.json:") {
		t.Fatalf("report does not name its baseline:\n%s", got)
	}
	if l := lineOf("BenchmarkDropped"); !strings.Contains(l, "in BENCH_1.json only, no longer run") {
		t.Errorf("dropped benchmark line %q does not say it is no longer run", l)
	}
	if l := lineOf("BenchmarkAdded"); !strings.Contains(l, "new benchmark") {
		t.Errorf("added benchmark line %q does not say it is new", l)
	}
	if l := lineOf("BenchmarkKept"); !strings.Contains(l, "+0.0%") || strings.Contains(l, "no longer run") {
		t.Errorf("kept benchmark line %q is not a delta line", l)
	}
}
