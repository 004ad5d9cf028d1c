package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run reports, on every workload (the
// benchmark's BENCHMARK.json end_to_end list, in the same order). An item is
// one engine run on one instance in the batch workloads and one request in
// serve; its latency runs from when it was due to its verdict. The report
// also prints peak_rss_mb, failed_frac and the latency median and 99th
// percentile, which are not gated: see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // median of the run's repeated set-ups
	{"solved", "count"},        // verified vectors plus False verdicts the planted truth allows
	{"instances_per_s", "1/s"}, // batch: the median round's rate; serve: closed-loop capacity
	{"goodput_rps", "1/s"},     // the same rate counting solved items only
	{"verdict_ms_p90", "ms"},   // 90th-percentile item latency (serve: open loop only)
}

// perLayer lists the metrics a traced run reports, on every workload (the
// BENCHMARK.json per_layer list). A layer a workload does not call reads 0
// there; README.md says which end-to-end metric each should move and why a
// few cannot be measured from outside the program.
var perLayer = []metricDef{
	{"core.preprocess_s", "s"},
	{"core.sample_s", "s"},
	{"core.learn_s", "s"},
	{"core.verify_repair_s", "s"},
	{"core.oracle_calls", "count"},
	{"core.repair_iterations", "count"},
	{"core.maxsat_calls", "count"},
	{"core.samples", "count"},
	{"core.unattributed_s", "s"},
	{"core.unattributed_verify_repair_s", "s"},
	{"core.repair_iter_us_p50", "us"},
	{"expand.expand_s", "s"},
	{"expand.solve_s", "s"},
	{"expand.extract_s", "s"},
	{"expand.clauses_out", "count"},
	{"pedant.define_s", "s"},
	{"pedant.refine_s", "s"},
	{"pedant.oracle_calls", "count"},
	{"sat.solves", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.decisions", "count"},
	{"oracle.solvers_built", "count"},
	{"oracle.batched_probes", "count"},
	{"dqbf.parse_ms", "ms"},
	{"dqbf.verify_ms", "ms"},
	{"dqbf.render_ms", "ms"},
	{"dqbf.certificate_kb", "KB"},
	{"backend.attempts_per_request", "ratio"},
	{"backend.useful_attempt_ratio", "ratio"},
	{"backend.loser_ms", "ms"},
	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_p99", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p99", "ms"},
	{"service.verify_ms_p50", "ms"},
	{"service.verify_ms_p99", "ms"},
	{"service.verify_hit_ratio", "ratio"},
	{"service.outside_phases_ms_p99", "ms"},
	{"service.response_kb_p99", "KB"},
	{"service.shed", "count"},
	{"client.lag_ms_p99", "ms"},
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line: the benchmark's whole verdict on one run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// item is one timed unit of work: an engine run (batch) or a request (serve).
type item struct {
	name    string        // engine/instance, or spec/formula for a request
	outcome string        // verdict class (backend.Outcome* strings, or shed/refused/wall/…)
	latency time.Duration // due time → verdict
	solved  bool          // a verified vector, or a False verdict the planted truth allows
	failed  bool          // wrong, unclassified, internal, wall-decided, shed, refused or unverified
	// closedLoop marks a serve capacity request: it counts, but its
	// latency is not timed from a due time and sets no percentile.
	closedLoop bool
}

// runResult is everything one workload run measured.
type runResult struct {
	workload string
	items    []item
	// wall is the measured region: first item due → last verdict, with the
	// benchmark's own verification time taken out.
	wall time.Duration
	// rate is items per second and goodRate solved items per second, as
	// the workload measures its throughput.
	rate, goodRate float64
	setups         []time.Duration
	// failLatency is the latency charged to a failed item: over any limit
	// the benchmark sets.
	failLatency time.Duration
	// problems are correctness violations (wrong or unclassified verdicts,
	// signature changes); any one makes the run incorrect.
	problems []string
	// signature maps item → outcome for the cross-run signature check.
	signature map[string]string
	layers    map[string]float64 // per-layer metrics (traced runs only)
	notes     []string           // extra report lines
}

func (r *runResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies returns the latencies in ms of the items timed from a due time,
// failed items charged failLatency, sorted ascending.
func (r *runResult) latencies() []float64 {
	xs := make([]float64, 0, len(r.items))
	for _, it := range r.items {
		if it.closedLoop {
			continue
		}
		d := it.latency
		if it.failed {
			d = max(d, r.failLatency)
		}
		xs = append(xs, ms(d))
	}
	return sortedCopy(xs)
}

// endToEndMetrics computes the end-to-end metrics of one run.
func (r *runResult) endToEndMetrics() map[string]float64 {
	lat := r.latencies()
	solved := 0
	for _, it := range r.items {
		if it.solved {
			solved++
		}
	}
	return map[string]float64{
		"setup_s":         medianDuration(r.setups),
		"solved":          float64(solved),
		"instances_per_s": r.rate,
		"goodput_rps":     r.goodRate,
		"verdict_ms_p90":  percentile(lat, 90).Value,
	}
}

// failedCount counts failed items.
func (r *runResult) failedCount() int {
	n := 0
	for _, it := range r.items {
		if it.failed {
			n++
		}
	}
	return n
}

// writeReport prints the human-readable report of one run: every end-to-end
// metric with its unit, the percentiles with their sample counts, the outcome
// mix, and the workload's own notes.
func (r *runResult) writeReport(w io.Writer, e2e map[string]float64) {
	fmt.Fprintf(w, "== %s: %d items in %.3f s (%.2f items/s over the whole run)\n",
		r.workload, len(r.items), r.wall.Seconds(), float64(len(r.items))/r.wall.Seconds())
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  %-16s %12.4f MB (high-water RSS of the process)\n", "peak_rss_mb", peakRSSMB())
	failed := r.failedCount()
	fmt.Fprintf(w, "  %-16s %12.4f ratio (%d of %d items)\n", "failed_frac",
		float64(failed)/float64(max(1, len(r.items))), failed, len(r.items))
	lat := r.latencies()
	for _, p := range []float64{50, 90, 99} {
		q := percentile(lat, p)
		flag := ""
		if !q.Valid() {
			flag = fmt.Sprintf(" — fewer than %d samples beyond, not a reliable tail", minBeyond)
		}
		fmt.Fprintf(w, "  latency_ms_p%-4g %12.4f ms (n=%d, %d beyond)%s\n", p, q.Value, q.N, q.Beyond, flag)
	}
	counts := map[string]int{}
	for _, it := range r.items {
		counts[it.outcome]++
	}
	outs := make([]string, 0, len(counts))
	for o := range counts {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	fmt.Fprintf(w, "  outcomes:")
	for _, o := range outs {
		fmt.Fprintf(w, " %s=%d", o, counts[o])
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(w, "  … %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
