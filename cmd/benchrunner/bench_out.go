package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// -bench-out: run the repository's performance-tracked micro-benchmarks and
// persist median results as JSON, so the perf trajectory across PRs lives
// in versioned files (BENCH_<n>.json) instead of commit-message prose.
// Medians are taken per metric over -bench-count runs; a count of 1 with
// -bench-time 1x doubles as the tier-1 smoke that keeps this path and the
// benchmarks themselves from bit-rotting.

// benchPackages are the benchmark suites the perf trajectory tracks: the
// SAT core's micro-benchmarks, the synthesis engine's end-to-end ones, the
// 400 draws of one sample phase, the decision-tree learning of one learn
// phase, the universal expansion of the expand baseline and the refinement
// loop of the pedant baseline.
var benchPackages = []string{"./internal/sat", "./internal/core", "./internal/sampler", "./internal/dtree", "./internal/baselines/expand", "./internal/baselines/pedant"}

// benchResult is one benchmark's median metrics.
type benchResult struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchReport is the JSON document -bench-out writes.
type benchReport struct {
	Schema    string        `json:"schema"`
	Go        string        `json:"go"`
	Count     int           `json:"count"`
	Benchtime string        `json:"benchtime"`
	Results   []benchResult `json:"results"`
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName[-P]  <iters>  <ns> ns/op  [<bytes> B/op  <allocs> allocs/op]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// runMicroBenchmarks executes every benchmark of benchPackages count times
// with the given benchtime (through the go tool, so it must run from the
// module root — where the tier-1 verify command runs it) and writes median
// metrics to outPath.
func runMicroBenchmarks(outPath string, count int, benchtime string) error {
	if count < 1 {
		count = 1
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return fmt.Errorf("bench-out needs the go tool on PATH: %w", err)
	}
	type samples struct {
		ns, bytes, allocs []float64
	}
	order := []string{} // "pkg name" keys in first-appearance order
	byKey := map[string]*samples{}
	for _, pkg := range benchPackages {
		args := []string{"test", pkg, "-run=NONE", "-bench=.", "-benchmem",
			"-benchtime=" + benchtime, "-count=" + strconv.Itoa(count)}
		out, err := exec.Command(goTool, args...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			key := pkg + " " + m[1]
			s, ok := byKey[key]
			if !ok {
				s = &samples{}
				byKey[key] = s
				order = append(order, key)
			}
			ns, _ := strconv.ParseFloat(m[2], 64)
			s.ns = append(s.ns, ns)
			if m[3] != "" {
				b, _ := strconv.ParseFloat(m[3], 64)
				a, _ := strconv.ParseFloat(m[4], 64)
				s.bytes = append(s.bytes, b)
				s.allocs = append(s.allocs, a)
			}
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("bench-out: no benchmark results parsed")
	}
	report := benchReport{
		Schema:    "bench-medians/v1",
		Go:        runtime.Version(),
		Count:     count,
		Benchtime: benchtime,
	}
	for _, key := range order {
		pkg, name, _ := strings.Cut(key, " ")
		s := byKey[key]
		report.Results = append(report.Results, benchResult{
			Package:     pkg,
			Name:        name,
			Runs:        len(s.ns),
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench medians (%d runs × %s) for %d benchmarks written to %s\n",
		count, benchtime, len(report.Results), outPath)
	printBenchDelta(os.Stdout, &report, outPath)
	return nil
}

// benchFile matches the committed per-PR median files (BENCH_<n>.json).
var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// printBenchDelta compares the fresh report against the newest committed
// BENCH_<n>.json in the working directory and writes to w the per-benchmark
// percentage change for each metric, flagging regressions above 10%, and
// one line for each baseline benchmark the fresh run no longer has. The
// delta is advisory — machines differ — but it surfaces accidental perf
// regressions at the moment the new medians are generated rather than in
// review. Missing baseline files or unparseable content just skip the
// report; generating medians must never fail on comparison problems.
// The freshly written outPath is excluded so a regeneration of the newest
// BENCH_<n>.json still compares against its predecessor.
func printBenchDelta(w io.Writer, cur *benchReport, outPath string) {
	entries, err := os.ReadDir(".")
	if err != nil {
		return
	}
	self := filepath.Base(filepath.Clean(outPath))
	bestN, bestName := -1, ""
	for _, e := range entries {
		if e.Name() == self {
			continue
		}
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > bestN {
			bestN, bestName = n, e.Name()
		}
	}
	if bestN < 0 {
		return
	}
	data, err := os.ReadFile(bestName)
	if err != nil {
		return
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return
	}
	baseline := map[string]benchResult{}
	for _, r := range base.Results {
		baseline[r.Package+" "+r.Name] = r
	}
	fmt.Fprintf(w, "\ndelta vs %s:\n", bestName)
	regressions := 0
	pct := func(old, new float64) string {
		if old == 0 {
			return "  n/a"
		}
		return fmt.Sprintf("%+6.1f%%", 100*(new-old)/old)
	}
	for _, r := range cur.Results {
		key := r.Package + " " + r.Name
		b, ok := baseline[key]
		if !ok {
			fmt.Fprintf(w, "  %-45s (new benchmark, no baseline)\n", r.Name)
			continue
		}
		delete(baseline, key)
		flag := ""
		for _, m := range [][2]float64{{b.NsPerOp, r.NsPerOp}, {b.BytesPerOp, r.BytesPerOp}, {b.AllocsPerOp, r.AllocsPerOp}} {
			if m[0] > 0 && (m[1]-m[0])/m[0] > 0.10 {
				flag = "  << REGRESSION >10%"
				regressions++
				break
			}
		}
		fmt.Fprintf(w, "  %-45s ns %s   B %s   allocs %s%s\n",
			r.Name, pct(b.NsPerOp, r.NsPerOp), pct(b.BytesPerOp, r.BytesPerOp),
			pct(b.AllocsPerOp, r.AllocsPerOp), flag)
	}
	// What is left of the baseline was not run: walk it in file order.
	for _, r := range base.Results {
		if _, ok := baseline[r.Package+" "+r.Name]; ok {
			fmt.Fprintf(w, "  %-45s (in %s only, no longer run)\n", r.Name, bestName)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed >10%% against %s\n", regressions, bestName)
	}
}

// median returns the median of xs (0 when empty). Even lengths average the
// two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
