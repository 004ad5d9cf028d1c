// Command benchrunner reproduces the paper's evaluation: it runs the three
// Henkin synthesis engines over the benchmark suite with per-instance
// timeouts and regenerates every figure and table of the paper's §6:
//
//	Figure 6  — cactus plot of VBS(HQS2,Pedant) vs VBS+Manthan3
//	Figure 7  — scatter Manthan3 vs VBS(HQS2+Pedant)
//	Figure 8  — scatter Manthan3 vs Pedant
//	Figure 9  — scatter Manthan3 vs HQS2
//	Figure 10 — scatter Pedant vs HQS2
//	Table 1   — in-text solved/unique/fastest counts
//
// Usage:
//
//	benchrunner [-n 563] [-timeout 2s] [-seed 1] [-j 0] [-pp-workers 1]
//	            [-engines expand,pedant,manthan3] [-faults panic@1,budget@2]
//	            [-out bench/results]
//	            [-fig 6|7|8|9|10|all] [-table 1]
//	benchrunner -bench-out BENCH_5.json [-bench-count 3] [-bench-time 2s]
//
// -j sets the number of parallel engine-run workers (0 = NumCPU); the worker
// count is reported in the run header. -pp-workers raises manthan3's
// internal preprocessing worker pool (default 1, keeping per-engine
// durations like-for-like under the parallel suite runner). -engines
// overrides the competitor set with comma-separated backend specs — plain
// registry names, seed-pinned variants ("manthan3@7"), or portfolios
// ("portfolio:expand+cegar+manthan3") — each reported like any other engine;
// the resilient dispatch forms ("fallback:a>b" and "retry(k):spec") are
// valid specs too. -faults arms a deterministic fault plan
// (internal/faultinject) freshly per engine run, injecting panics, budget
// errors, forced unknowns, cancellations, or stalls at chosen invocation
// indices — the resilience layer must degrade every run to a classified
// outcome instead of crashing the suite. CSV data land in -out
// (results_raw.csv carries one per-phase column per observed phase plus a
// dispatch-telemetry "attempts" column, both preserved by -replay); ASCII
// renderings go to stdout. A file that cannot be created, written, or closed
// makes the run exit 1.
//
// -bench-out switches to perf-trajectory mode: run the internal/sat,
// internal/core, internal/sampler, internal/dtree, internal/baselines/expand
// and internal/baselines/pedant micro-benchmarks -bench-count times each and
// write median
// ns/op, B/op, and allocs/op as JSON (the committed BENCH_<n>.json files),
// then exit. The tier-1 verify runs it with -bench-count 1 -bench-time 1x
// as a smoke test.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/bench"
	"repro/internal/faultinject"
	"repro/internal/gen"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchrunner", flag.ExitOnError)
	n := fs.Int("n", 563, "number of suite instances to run (prefix of the suite)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-engine per-instance timeout")
	seed := fs.Int64("seed", 1, "suite and engine seed")
	outDir := fs.String("out", "bench-results", "output directory for CSV data")
	fig := fs.String("fig", "all", "which figure to emit: 6,7,8,9,10,all")
	jobs := fs.Int("j", 0, "parallel engine-run workers (0 = NumCPU)")
	ppWorkers := fs.Int("pp-workers", 1, "per-engine preprocessing workers (manthan3-family engines)")
	enginesFlag := fs.String("engines", "", "comma-separated engine specs to race (default: the canonical set; accepts name@seed and portfolio:a+b+c)")
	faults := fs.String("faults", "", "deterministic fault plan injected into every engine run (e.g. \"panic@1,budget@2,stall(5ms)@3\"; see internal/faultinject); a fresh plan is armed per run")
	replay := fs.String("replay", "", "regenerate reports from a previous results_raw.csv instead of re-running")
	benchOut := fs.String("bench-out", "", "run the internal/sat, internal/core, internal/sampler, internal/dtree, internal/baselines/expand and internal/baselines/pedant micro-benchmarks and write median results as JSON to this file, then exit")
	benchCount := fs.Int("bench-count", 3, "benchmark repetitions per micro-benchmark for -bench-out (medians are reported)")
	benchTime := fs.String("bench-time", "1s", "benchtime per micro-benchmark run for -bench-out (accepts Nx iteration counts)")
	serveLoad := fs.String("serve-load", "", "open-loop load test against the manthand service: \"self\" (in-process server honoring -faults) or a base URL; reports p50/p99 latency, shed and outcome counts, then exits")
	slRate := fs.Float64("sl-rate", 50, "serve-load arrival rate in requests/second (open loop: arrivals never wait for responses)")
	slDuration := fs.Duration("sl-duration", 3*time.Second, "serve-load generation window")
	slSpec := fs.String("sl-spec", "manthan3", "serve-load engine spec sent with every request")
	slInstances := fs.Int("sl-instances", 4, "serve-load distinct instance count (cycled; repeats exercise the server's warm verify pools)")
	slTimeout := fs.Duration("sl-timeout", 2*time.Second, "serve-load per-request client deadline hint")
	slQueue := fs.Int("sl-queue", 8, "serve-load self-server admission queue cap (small by default so overload sheds)")
	slConcurrency := fs.Int("sl-concurrency", 2, "serve-load self-server worker count")
	fs.Parse(args)

	if *benchOut != "" {
		if err := runMicroBenchmarks(*benchOut, *benchCount, *benchTime); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *serveLoad != "" {
		return runServeLoad(serveLoadConfig{
			target:      *serveLoad,
			rate:        *slRate,
			duration:    *slDuration,
			spec:        *slSpec,
			instances:   *slInstances,
			timeoutMS:   slTimeout.Milliseconds(),
			seed:        *seed,
			faults:      *faults,
			queue:       *slQueue,
			concurrency: *slConcurrency,
		})
	}
	var wrap func(backend.Backend) backend.Backend
	if *faults != "" {
		rules, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		faultSeed := *seed
		// A fresh plan per engine run: every run sees the same deterministic
		// fault schedule instead of the whole suite sharing one counter.
		wrap = func(b backend.Backend) backend.Backend {
			return faultinject.New(faultSeed, rules...).Backend(b)
		}
		fmt.Printf("fault injection armed: %s\n", faultinject.New(faultSeed, rules...))
	}

	var engines []string
	if *enginesFlag != "" {
		for _, spec := range strings.Split(*enginesFlag, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			if _, err := backend.Resolve(spec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			engines = append(engines, spec)
		}
	}

	var results []bench.RunResult
	if *replay != "" {
		var err error
		results, err = readResultsCSV(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("replaying %d results from %s\n\n", len(results), *replay)
	} else {
		if engines == nil {
			engines = bench.Engines
		}
		suite := gen.Suite(*seed)
		if *n < len(suite) {
			// Take a stratified prefix: preserve family proportions.
			suite = stratifiedPrefix(suite, *n)
		}
		workers := *jobs
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		fmt.Printf("running %d instances × %d engines (%s), timeout %v, %d workers, %d preproc workers…\n",
			len(suite), len(engines), strings.Join(engines, ", "), *timeout, workers, *ppWorkers)
		start := time.Now()
		results = bench.RunSuite(context.Background(), suite, bench.Options{
			Timeout: *timeout, Seed: *seed, Workers: workers,
			Engines: engines, PreprocWorkers: *ppWorkers, WrapBackend: wrap,
		})
		fmt.Printf("suite completed in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	// In replay mode without -engines, the report set is derived from the
	// CSV itself (NewTable collects engines in order of first appearance).
	tab := bench.NewTable(results, engines...)

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	writeFailed := false
	write := func(name string, fn func(f *os.File) error) {
		if err := writeFile(filepath.Join(*outDir, name), fn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			writeFailed = true
		}
	}

	wantFig := func(k string) bool { return *fig == "all" || *fig == k }

	if wantFig("6") {
		fmt.Print(bench.RenderCactusASCII(tab, *timeout, 70, 16))
		fmt.Println()
		write("fig6_cactus.csv", func(f *os.File) error {
			return bench.WriteCactusCSV(f, tab, *timeout)
		})
	}
	scatters := []struct {
		key   string
		xs    []string
		y     string
		file  string
		title string
	}{
		{"7", []string{bench.EngineExpand, bench.EnginePedant}, bench.EngineManthan3, "fig7_scatter_vbs.csv", "VBS(expand+pedant) vs Manthan3"},
		{"8", []string{bench.EnginePedant}, bench.EngineManthan3, "fig8_scatter_pedant.csv", "Pedant-arbiter vs Manthan3"},
		{"9", []string{bench.EngineExpand}, bench.EngineManthan3, "fig9_scatter_hqs.csv", "HQS-expand vs Manthan3"},
		{"10", []string{bench.EngineExpand}, bench.EnginePedant, "fig10_scatter_baselines.csv", "HQS-expand vs Pedant-arbiter"},
	}
	for _, s := range scatters {
		if !wantFig(s.key) {
			continue
		}
		pts := tab.Scatter(s.xs, s.y, *timeout)
		fmt.Printf("Fig %s: %s (%d points)\n", s.key, s.title, len(pts))
		fmt.Print(bench.RenderScatterASCII(pts, s.xs[0], s.y, *timeout, 28))
		fmt.Println()
		ptsCopy := pts
		write(s.file, func(f *os.File) error { return bench.WriteScatterCSV(f, ptsCopy) })
	}

	sc := bench.Summarize(tab, *timeout)
	fmt.Println("Table 1: solved/unique/fastest counts")
	if err := bench.WriteSummary(os.Stdout, sc); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	write("table1_summary.txt", func(f *os.File) error { return bench.WriteSummary(f, sc) })

	fmt.Println("\nper-family synthesized counts (orthogonality):")
	breakdown := bench.FamilyBreakdown(results)
	for _, fam := range bench.SortedFamilies(breakdown) {
		fmt.Printf("  %-12s", fam)
		for _, e := range tab.Engines {
			fmt.Printf(" %s=%d", e, breakdown[fam][e])
		}
		fmt.Println()
	}
	write("EXPERIMENTS.generated.md", func(f *os.File) error {
		return bench.WriteExperimentsMD(f, tab, results, *timeout)
	})
	write("results_raw.csv", func(f *os.File) error {
		return writeResultsCSV(f, results)
	})
	if writeFailed {
		return 1
	}
	fmt.Printf("\nCSV data written to %s\n", *outDir)
	return 0
}

// writeFile creates path and fills it through fn, reporting the first
// create, write, or close failure.
func writeFile(path string, fn func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseColPrefix marks the per-phase columns in results_raw.csv: one
// column "phase:<name>" per phase name observed anywhere in the result
// set, holding "<seconds>/<oracle calls>" (empty when the row's engine did
// not execute the phase).
const phaseColPrefix = "phase:"

// writeResultsCSV emits the raw per-run results. The Detail column is free
// text (engine error strings); everything goes through encoding/csv so
// quotes, commas, and newlines in details survive the replay round-trip with
// readResults — hand-rolled fmt.Fprintf("%q") escaping does Go escaping,
// which encoding/csv does not undo. Per-phase telemetry rides along in
// phase:<name> columns (first-appearance order), so -replay regenerates
// the phase-breakdown table from the same numbers the live run saw.
func writeResultsCSV(w io.Writer, results []bench.RunResult) error {
	phaseNames := bench.PhaseNames(results)
	cw := csv.NewWriter(w)
	header := []string{"instance", "family", "engine", "outcome", "seconds", "detail", attemptsCol}
	for _, name := range phaseNames {
		header = append(header, phaseColPrefix+name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			r.Instance, r.Family, r.Engine, r.Outcome.String(),
			strconv.FormatFloat(r.Duration.Seconds(), 'f', 4, 64), r.Detail,
			formatAttemptsCell(r.Attempts),
		}
		for _, name := range phaseNames {
			rec = append(rec, formatPhaseCell(r.Phases, name))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// attemptsCol is the dispatch-telemetry column of results_raw.csv: one
// space-separated "engine outcome seconds retries" entry per member
// invocation, ";"-joined (engine specs never contain spaces or
// semicolons). Discovered from the header like the phase columns, so
// replays of older CSVs keep working.
const attemptsCol = "attempts"

// formatAttemptsCell renders the dispatch telemetry of one run; "" for bare
// engines.
func formatAttemptsCell(attempts []backend.AttemptStat) string {
	if len(attempts) == 0 {
		return ""
	}
	parts := make([]string, len(attempts))
	for i, a := range attempts {
		parts[i] = fmt.Sprintf("%s %s %s %d",
			a.Engine, a.Outcome,
			strconv.FormatFloat(a.Duration.Seconds(), 'f', 6, 64), a.Retries)
	}
	return strings.Join(parts, ";")
}

// parseAttemptsCell is formatAttemptsCell's inverse.
func parseAttemptsCell(cell string) ([]backend.AttemptStat, error) {
	if cell == "" {
		return nil, nil
	}
	var out []backend.AttemptStat
	for _, part := range strings.Split(cell, ";") {
		fields := strings.Fields(part)
		if len(fields) != 4 {
			return nil, fmt.Errorf("want \"engine outcome seconds retries\", got %q", part)
		}
		sec, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, err
		}
		retries, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, err
		}
		out = append(out, backend.AttemptStat{
			Engine:   fields[0],
			Outcome:  fields[1],
			Duration: time.Duration(sec * float64(time.Second)),
			Retries:  retries,
		})
	}
	return out, nil
}

// formatPhaseCell renders one phase's cell as "<seconds>/<calls>", or ""
// when the row did not execute the phase.
func formatPhaseCell(phases []backend.PhaseStat, name string) string {
	for _, p := range phases {
		if p.Name == name {
			return strconv.FormatFloat(p.Duration.Seconds(), 'f', 6, 64) +
				"/" + strconv.FormatInt(p.OracleCalls, 10)
		}
	}
	return ""
}

// parsePhaseCell is formatPhaseCell's inverse.
func parsePhaseCell(name, cell string) (backend.PhaseStat, error) {
	secStr, callStr, ok := strings.Cut(cell, "/")
	if !ok {
		return backend.PhaseStat{}, fmt.Errorf("missing '/' in %q", cell)
	}
	sec, err := strconv.ParseFloat(secStr, 64)
	if err != nil {
		return backend.PhaseStat{}, err
	}
	calls, err := strconv.ParseInt(callStr, 10, 64)
	if err != nil {
		return backend.PhaseStat{}, err
	}
	return backend.PhaseStat{
		Name:        name,
		Duration:    time.Duration(sec * float64(time.Second)),
		OracleCalls: calls,
	}, nil
}

// readResultsCSV parses a results_raw.csv written by a previous run.
func readResultsCSV(path string) ([]bench.RunResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readResults(f, path)
}

func readResults(rd io.Reader, path string) ([]bench.RunResult, error) {
	r := csv.NewReader(rd)
	rows, err := r.ReadAll() // field count inferred from the header: short rows fail loudly
	if err != nil {
		return nil, err
	}
	outcomeOf := map[string]bench.Outcome{
		"synthesized": bench.Synthesized,
		"false":       bench.ProvedFalse,
		"timeout":     bench.TimedOut,
		"incomplete":  bench.GaveUp,
		"failed":      bench.Failed,
	}
	// Phase columns are discovered from the header, so replays of CSVs
	// written before (or after) a phase-vocabulary change keep working.
	type phaseCol struct {
		idx  int
		name string
	}
	var phaseCols []phaseCol
	attemptsIdx := -1
	if len(rows) > 0 {
		for idx, col := range rows[0] {
			if name, ok := strings.CutPrefix(col, phaseColPrefix); ok {
				phaseCols = append(phaseCols, phaseCol{idx: idx, name: name})
			}
			if col == attemptsCol {
				attemptsIdx = idx
			}
		}
	}
	unknown := map[string]bool{}
	var out []bench.RunResult
	for i, row := range rows {
		if i == 0 || len(row) < 5 {
			continue // header / malformed
		}
		if _, err := backend.Resolve(row[2]); err != nil && !unknown[row[2]] {
			// Loud, not fatal: the report set is derived from the CSV, so
			// stale names (e.g. pre-rename "hqs-expand") still render — but
			// flag that no current backend answers to the spec.
			unknown[row[2]] = true
			fmt.Fprintf(os.Stderr, "warning: %s: engine %q does not resolve to a current backend spec; its rows replay as recorded\n",
				path, row[2])
		}
		secs, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: bad seconds %q", path, i+1, row[4])
		}
		oc, ok := outcomeOf[row[3]]
		if !ok {
			return nil, fmt.Errorf("%s line %d: bad outcome %q", path, i+1, row[3])
		}
		rr := bench.RunResult{
			Instance: row[0],
			Family:   row[1],
			Engine:   row[2],
			Outcome:  oc,
			Duration: time.Duration(secs * float64(time.Second)),
		}
		if len(row) > 5 {
			rr.Detail = row[5]
		}
		if attemptsIdx >= 0 && attemptsIdx < len(row) {
			rr.Attempts, err = parseAttemptsCell(row[attemptsIdx])
			if err != nil {
				return nil, fmt.Errorf("%s line %d: bad attempts cell %q: %v",
					path, i+1, row[attemptsIdx], err)
			}
		}
		for _, pc := range phaseCols {
			if pc.idx >= len(row) || row[pc.idx] == "" {
				continue
			}
			ps, err := parsePhaseCell(pc.name, row[pc.idx])
			if err != nil {
				return nil, fmt.Errorf("%s line %d: bad phase cell %q for %q: %v",
					path, i+1, row[pc.idx], pc.name, err)
			}
			rr.Phases = append(rr.Phases, ps)
		}
		out = append(out, rr)
	}
	return out, nil
}

// stratifiedPrefix keeps family proportions while truncating to n instances.
func stratifiedPrefix(suite []gen.Named, n int) []gen.Named {
	byFam := make(map[gen.Family][]gen.Named)
	var famOrder []gen.Family
	for _, s := range suite {
		if len(byFam[s.Family]) == 0 {
			famOrder = append(famOrder, s.Family)
		}
		byFam[s.Family] = append(byFam[s.Family], s)
	}
	out := make([]gen.Named, 0, n)
	for i := 0; len(out) < n; i++ {
		added := false
		for _, fam := range famOrder {
			if i < len(byFam[fam]) && len(out) < n {
				out = append(out, byFam[fam][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}
