// Command perfbench is the repository's benchmark. One run executes one
// workload — suite-manthan3, suite-baselines or serve, or all three in turn
// — for a seed and a length, checks every verdict, prints a report and ends
// with one JSON line:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) times the benchmark's calls into each layer's public functions,
// rebuilds child spans from what those calls return, and reports the
// per-layer metrics. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// State that later runs compare against (outcome signatures, untraced
// results for the tracing overhead, span dumps) lives under
// .bench_build/perfbench, keyed by workload, seed, length and a hash of the
// binary, so only runs of the same code on the same inputs are compared.
// README.md records the design.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// stateDir holds what later runs in the same checkout compare against.
var stateDir = filepath.Join(".bench_build", "perfbench")

// config is what a workload run needs from the command line.
type config struct {
	seed    int64
	seconds int
	tracer  *tracer // nil for untraced runs
}

var workloads = []string{"suite-manthan3", "suite-baselines", "serve"}

func runWorkload(name string, cfg config) (*runResult, error) {
	switch name {
	case "suite-manthan3":
		return runBatch(suiteManthan3, cfg)
	case "suite-baselines":
		return runBatch(suiteBaselines, cfg)
	case "serve":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloads, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured region: it sizes the batch slices and the serve schedule")
	trace := fs.Int("trace", 0, "1 for a traced run that reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	bin, err := binaryID()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: hashing the binary:", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}

	sum := summary{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		cfg := config{seed: *seed, seconds: *seconds}
		if *trace == 1 {
			cfg.tracer = newTracer()
		}
		res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		key := fmt.Sprintf("%s-seed%d-s%d-%s", name, *seed, *seconds, bin)
		diffs, stored, err := checkSignature(filepath.Join(stateDir, "signatures", key+".sig"), res.signature)
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "perfbench: outcome signature not checked: %v\n", err)
		case stored:
			res.notef("outcome signature of %d items stored for later runs", len(res.signature))
		case len(diffs) == 0:
			res.notef("outcome signature of %d items matches the stored one", len(res.signature))
		}
		for _, d := range diffs {
			res.problemf("outcome signature changed: %s", d)
		}

		e2e := res.endToEndMetrics()
		resultsPath := filepath.Join(stateDir, "results", key+".jsonl")
		if cfg.tracer == nil {
			if err := appendResult(resultsPath, e2e); err != nil {
				fmt.Fprintf(stderr, "perfbench: storing the untraced result: %v\n", err)
			}
		} else {
			res.notef("%s", traceOverhead(resultsPath, e2e))
		}
		res.writeReport(stdout, e2e)

		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		defs, values := endToEnd, e2e
		if cfg.tracer != nil {
			defs, values = perLayer, res.layers
			writeSelfTimes(stdout, cfg.tracer.spans)
			path := filepath.Join(stateDir, "traces", key+".jsonl")
			if err := writeSpans(path, cfg.tracer.spans); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "  spans written to %s\n", path)
			}
			fmt.Fprintln(stdout, "  per-layer metrics:")
			for _, d := range perLayer {
				fmt.Fprintf(stdout, "    %-34s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
			}
		}
		for _, d := range defs {
			sum.Metrics[prefix+d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
		sum.Attempted += len(res.items)
		sum.Failed += res.failedCount()
		if len(res.problems) > 0 {
			sum.Correct = false
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// binaryID names the running binary by a hash of its contents. The
// benchmark is built with the code it measures, so two runs with one
// binaryID ran the same code.
func binaryID() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// appendResult stores one untraced run's end-to-end metrics as a JSON line,
// so a traced run of the same binary, workload, seed and length can report
// its own overhead.
func appendResult(path string, e2e map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(e2e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOverhead compares a traced run's end-to-end numbers with the medians
// of the untraced runs stored at path, which ran the same binary on the
// same inputs: the difference is what tracing costs.
func traceOverhead(path string, traced map[string]float64) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "tracing overhead: no untraced run of this binary, workload, seed and length stored in this checkout yet"
	}
	byName := map[string][]float64{}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var m map[string]float64
		if json.Unmarshal([]byte(line), &m) != nil {
			continue
		}
		n++
		for k, v := range m {
			byName[k] = append(byName[k], v)
		}
	}
	if n == 0 {
		return "tracing overhead: no readable untraced run stored at " + path
	}
	rel := func(name string) float64 {
		base := median(byName[name])
		return 100 * (traced[name] - base) / base
	}
	return fmt.Sprintf("tracing overhead against the median of %d untraced runs: instances_per_s %+.1f%%, verdict_ms_p90 %+.1f%%",
		n, rel("instances_per_s"), rel("verdict_ms_p90"))
}
