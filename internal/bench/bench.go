// Package bench is the evaluation harness that reproduces the experiments of
// the Manthan3 paper: it runs the three Henkin synthesis engines (Manthan3,
// the HQS2-like expansion baseline, and the Pedant-like arbiter baseline)
// over the generated benchmark suite with per-instance timeouts, computes
// Virtual Best Synthesizer (VBS) portfolios, and emits the data behind
// Figure 6 (cactus plot), Figures 7-10 (scatter plots), and the in-text
// solved/unique/fastest counts.
//
// Engines are resolved through the internal/backend registry — the same
// dispatch path cmd/manthan3 uses — so any registered backend name is a
// valid engine here; Engines lists the paper's three competitors. Per-run
// timeouts are enforced with a context threaded into every engine, so a
// timed-out run stops promptly instead of polling wall clocks.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
	"repro/internal/gen"

	// Engine registrations: each engine package registers itself with the
	// backend registry in its init.
	_ "repro/internal/baselines/cegar"
	_ "repro/internal/baselines/expand"
	_ "repro/internal/baselines/pedant"
	_ "repro/internal/core"
)

// Engine names (backend registry keys).
const (
	EngineManthan3 = "manthan3"
	EngineExpand   = "expand"
	EnginePedant   = "pedant"
)

// Engines lists the paper's three competitors in canonical order — the
// default report set. Any backend spec accepted by backend.Resolve is a
// valid engine here too: plain registry names, seed-pinned variants
// ("manthan3@7"), and portfolios ("portfolio:expand+cegar+manthan3"), so a
// portfolio races as a measured competitor like any single engine.
var Engines = []string{EngineExpand, EnginePedant, EngineManthan3}

// Outcome classifies one engine run on one instance.
type Outcome int

// Outcomes.
const (
	// Synthesized means the engine produced a Henkin vector that passed
	// independent verification.
	Synthesized Outcome = iota
	// ProvedFalse means the engine proved the instance False.
	ProvedFalse
	// TimedOut means the budget expired.
	TimedOut
	// GaveUp means a documented incompleteness or size limit was hit.
	GaveUp
	// Failed means an unexpected error (or an invalid vector) occurred.
	Failed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Synthesized:
		return "synthesized"
	case ProvedFalse:
		return "false"
	case TimedOut:
		return "timeout"
	case GaveUp:
		return "incomplete"
	}
	return "failed"
}

// RunResult is one engine × instance measurement.
type RunResult struct {
	Instance string
	Family   string
	Engine   string
	Outcome  Outcome
	Duration time.Duration
	Detail   string
	// Phases is the backend's per-phase telemetry for successful runs
	// (empty when the engine failed before producing a result).
	Phases []backend.PhaseStat
	// Attempts is the dispatch-resilience telemetry for successful runs: one
	// entry per engine invocation a portfolio, fallback chain, or retry loop
	// made on the way to the answer (empty for a bare engine or a failed
	// run). It lands in results_raw.csv so graceful degradation is measured,
	// not assumed.
	Attempts []backend.AttemptStat
}

// Options configures a suite run.
type Options struct {
	// Timeout per engine per instance (default 2s — the laptop-scale stand-in
	// for the paper's 7200 s).
	Timeout time.Duration
	// Seed for engines that randomize.
	Seed int64
	// Workers for parallel execution (default NumCPU).
	Workers int
	// Engines lists the competitor specs to run (see backend.Resolve for
	// the grammar); empty means the canonical Engines set.
	Engines []string
	// PreprocWorkers bounds each engine's internal preprocessing pool.
	// Default 1: RunSuite already saturates the CPUs with concurrent engine
	// runs, so per-engine durations stay like-for-like (see RunEngine).
	PreprocWorkers int
	// VerifyWorkers bounds each engine's internal repair-phase verification
	// pool. Default 1, for the same like-for-like reason as PreprocWorkers;
	// results are bit-identical at every setting.
	VerifyWorkers int
	// WrapBackend, when set, wraps every resolved backend before it runs —
	// the seam the fault-injection harness (internal/faultinject,
	// benchrunner's -faults flag) uses to inject dispatch-level faults. The
	// wrapped backend is re-protected (backend.Protect), so a wrapper that
	// panics is still contained.
	WrapBackend func(backend.Backend) backend.Backend
}

// engines returns the competitor specs, defaulting to the canonical set.
func (o Options) engines() []string {
	if len(o.Engines) > 0 {
		return o.Engines
	}
	return Engines
}

// RunEngine executes a single engine spec (resolved through
// backend.Resolve, so seed-pinned and portfolio specs race like plain
// engines) on an instance under a per-run timeout derived from ctx, so a
// caller canceling ctx (a benchrunner shard being shut down, a service
// request going away) interrupts the run promptly. A vector or False
// verdict that arrives after that derived ctx has expired is TimedOut, with
// the Duration measured: it is no solve within the run's timeout.
func RunEngine(ctx context.Context, engine string, in *dqbf.Instance, opts Options) RunResult {
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	b, err := backend.Resolve(engine)
	if err != nil {
		return RunResult{Engine: engine, Outcome: Failed, Detail: err.Error()}
	}
	if opts.WrapBackend != nil {
		// Re-protect: the wrapper may inject panics, and containment at the
		// dispatch boundary is exactly what fault runs measure.
		b = backend.Protect(opts.WrapBackend(b))
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ppWorkers := opts.PreprocWorkers
	if ppWorkers <= 0 {
		ppWorkers = 1
	}
	vWorkers := opts.VerifyWorkers
	if vWorkers <= 0 {
		vWorkers = 1
	}
	start := time.Now()
	// Workers: 1 keeps the measurement like-for-like: RunSuite already
	// saturates the CPUs with concurrent engine runs, and the serial
	// baselines have no intra-engine parallelism to match — a manthan3 run
	// fanning out NumCPU learn goroutines would both oversubscribe the
	// machine and skew the per-engine Durations behind the paper figures.
	// PreprocWorkers and VerifyWorkers default to 1 for the same reason;
	// benchrunner's -pp-workers and -verify-workers raise them deliberately.
	res, err := b.Synthesize(ctx, in, backend.Options{
		Seed: opts.Seed, Workers: 1, PreprocWorkers: ppWorkers,
		VerifyWorkers: vWorkers,
	})
	end := time.Now()
	// The deadline is compared directly because ctx.Err() turns non-nil only
	// when ctx's timer fires, which can lag on a loaded host.
	deadline, _ := ctx.Deadline()
	late := !end.Before(deadline) || ctx.Err() != nil
	out := RunResult{Engine: engine, Duration: end.Sub(start)}
	if res != nil {
		out.Phases = res.Phases
		out.Attempts = res.Attempts
	}
	switch {
	case err == nil:
		vr, verr := dqbf.VerifyVector(in, res.Vector, 2_000_000)
		if verr != nil || !vr.Valid {
			out.Outcome = Failed
			out.Detail = fmt.Sprintf("vector failed verification: %v", verr)
			return out
		}
		out.Outcome = Synthesized
	case errors.Is(err, backend.ErrFalse):
		out.Outcome = ProvedFalse
	case errors.Is(err, backend.ErrIncomplete),
		errors.Is(err, backend.ErrTooLarge),
		errors.Is(err, backend.ErrUnsupported):
		out.Outcome = GaveUp
		out.Detail = err.Error()
	case errors.Is(err, backend.ErrBudget), errors.Is(err, backend.ErrCanceled):
		out.Outcome = TimedOut
	case errors.Is(err, backend.ErrInternal):
		// A recovered engine panic: a Failed run with the panic recorded, not
		// a crashed benchmark process.
		out.Outcome = Failed
		out.Detail = err.Error()
	default:
		out.Outcome = Failed
		out.Detail = err.Error()
	}
	if late && (out.Outcome == Synthesized || out.Outcome == ProvedFalse) {
		out.Outcome = TimedOut
	}
	return out
}

// runEngineSafe is RunEngine behind the goroutine panic-isolation contract:
// RunEngine's own dispatch already contains engine panics, but the suite
// workers also run verification and bookkeeping, and a panic on a worker
// goroutine would crash the whole benchmark run. It recovers into a Failed
// row with the panic recorded instead.
func runEngineSafe(ctx context.Context, engine string, in *dqbf.Instance, opts Options) (r RunResult) {
	defer func() {
		if p := recover(); p != nil {
			r = RunResult{
				Engine:  engine,
				Outcome: Failed,
				Detail:  fmt.Sprintf("panic on suite worker: %v\n%s", p, debug.Stack()),
			}
		}
	}()
	return RunEngine(ctx, engine, in, opts)
}

// RunSuite runs every engine of opts.Engines (default: the canonical
// Engines set) over every instance in parallel, under ctx: cancellation
// aborts in-flight runs and the remaining queue.
func RunSuite(ctx context.Context, suite []gen.Named, opts Options) []RunResult {
	if ctx == nil {
		ctx = context.Background()
	}
	engines := opts.engines()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	type job struct {
		inst   gen.Named
		engine string
	}
	jobs := make(chan job)
	results := make([]RunResult, 0, len(suite)*len(engines))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := runEngineSafe(ctx, j.engine, j.inst.DQBF, opts)
				r.Instance = j.inst.Name
				r.Family = string(j.inst.Family)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	for _, inst := range suite {
		for _, e := range engines {
			jobs <- job{inst, e}
		}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(results, func(i, j int) bool {
		if results[i].Instance != results[j].Instance {
			return results[i].Instance < results[j].Instance
		}
		return results[i].Engine < results[j].Engine
	})
	return results
}

// Table collects per-instance outcomes keyed by engine.
type Table struct {
	Instances []string
	// Engines is the report set — the competitors whose rows the summary,
	// unique/fastest counts, and "VBS of everything" series range over.
	Engines  []string
	ByEngine map[string]map[string]RunResult // engine → instance → result
}

// NewTable indexes run results. The optional engines list fixes the report
// set (and its display order); when omitted it is derived from the results
// themselves in order of first appearance.
func NewTable(results []RunResult, engines ...string) *Table {
	t := &Table{Engines: engines, ByEngine: make(map[string]map[string]RunResult)}
	seen := make(map[string]bool)
	seenEngine := make(map[string]bool, len(engines))
	for _, e := range engines {
		seenEngine[e] = true
	}
	for _, r := range results {
		if !seen[r.Instance] {
			seen[r.Instance] = true
			t.Instances = append(t.Instances, r.Instance)
		}
		if !seenEngine[r.Engine] {
			seenEngine[r.Engine] = true
			t.Engines = append(t.Engines, r.Engine)
		}
		m := t.ByEngine[r.Engine]
		if m == nil {
			m = make(map[string]RunResult)
			t.ByEngine[r.Engine] = m
		}
		m[r.Instance] = r
	}
	sort.Strings(t.Instances)
	return t
}

// synthesized reports whether the engine synthesized functions for inst.
func (t *Table) synthesized(engine, inst string) (time.Duration, bool) {
	r, ok := t.ByEngine[engine][inst]
	if !ok || r.Outcome != Synthesized {
		return 0, false
	}
	return r.Duration, true
}

// VBSTime returns the minimum synthesis time among the engines for inst.
func (t *Table) VBSTime(inst string, engines []string) (time.Duration, bool) {
	best := time.Duration(0)
	found := false
	for _, e := range engines {
		if d, ok := t.synthesized(e, inst); ok {
			if !found || d < best {
				best = d
				found = true
			}
		}
	}
	return best, found
}

// SolvedCount returns the number of instances an engine synthesized.
func (t *Table) SolvedCount(engine string) int {
	n := 0
	for _, inst := range t.Instances {
		if _, ok := t.synthesized(engine, inst); ok {
			n++
		}
	}
	return n
}

// VBSSolvedCount returns the portfolio's synthesized count.
func (t *Table) VBSSolvedCount(engines []string) int {
	n := 0
	for _, inst := range t.Instances {
		if _, ok := t.VBSTime(inst, engines); ok {
			n++
		}
	}
	return n
}

// UniqueCount returns instances only the given engine synthesized.
func (t *Table) UniqueCount(engine string) int {
	n := 0
	for _, inst := range t.Instances {
		if _, ok := t.synthesized(engine, inst); !ok {
			continue
		}
		others := 0
		for _, e := range t.Engines {
			if e == engine {
				continue
			}
			if _, ok := t.synthesized(e, inst); ok {
				others++
			}
		}
		if others == 0 {
			n++
		}
	}
	return n
}

// FastestCount returns instances where the engine strictly achieved the
// minimum synthesis time (ties count for all tied engines).
func (t *Table) FastestCount(engine string) int {
	n := 0
	for _, inst := range t.Instances {
		d, ok := t.synthesized(engine, inst)
		if !ok {
			continue
		}
		vbs, _ := t.VBSTime(inst, t.Engines)
		if d <= vbs {
			n++
		}
	}
	return n
}

// BeatsCount returns instances engine a synthesized that engine b did not.
func (t *Table) BeatsCount(a, b string) int {
	n := 0
	for _, inst := range t.Instances {
		if _, ok := t.synthesized(a, inst); !ok {
			continue
		}
		if _, ok := t.synthesized(b, inst); !ok {
			n++
		}
	}
	return n
}

// IncompleteMisses returns the instances Manthan3 lost to incompleteness
// (GaveUp) while some other engine synthesized.
func (t *Table) IncompleteMisses() (incomplete, timeouts int) {
	for _, inst := range t.Instances {
		if _, ok := t.synthesized(EngineManthan3, inst); ok {
			continue
		}
		othersSolved := false
		for _, e := range []string{EngineExpand, EnginePedant} {
			if _, ok := t.synthesized(e, inst); ok {
				othersSolved = true
				break
			}
		}
		if !othersSolved {
			continue
		}
		r := t.ByEngine[EngineManthan3][inst]
		if r.Outcome == GaveUp {
			incomplete++
		} else {
			timeouts++
		}
	}
	return
}

// CactusSeries returns the sorted synthesis times for a portfolio: point i
// (1-based) is the time of the i-th easiest synthesized instance.
func (t *Table) CactusSeries(engines []string) []time.Duration {
	var times []time.Duration
	for _, inst := range t.Instances {
		if d, ok := t.VBSTime(inst, engines); ok {
			times = append(times, d)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// ScatterPoint pairs two engines' times on one instance; unsolved sides are
// reported at the timeout value with Solved=false.
type ScatterPoint struct {
	Instance         string
	XTime, YTime     time.Duration
	XSolved, YSolved bool
}

// Scatter builds the Figure 7-10 data: x = engines in xs (as a portfolio),
// y = engine ye.
func (t *Table) Scatter(xs []string, ye string, timeout time.Duration) []ScatterPoint {
	var pts []ScatterPoint
	for _, inst := range t.Instances {
		p := ScatterPoint{Instance: inst, XTime: timeout, YTime: timeout}
		if d, ok := t.VBSTime(inst, xs); ok {
			p.XTime, p.XSolved = d, true
		}
		if d, ok := t.synthesized(ye, inst); ok {
			p.YTime, p.YSolved = d, true
		}
		if p.XSolved || p.YSolved {
			pts = append(pts, p)
		}
	}
	return pts
}

// WithinExtra counts scatter points where y solved within `extra` more time
// than x (the paper's "47 instances within 10 additional seconds" band).
func WithinExtra(pts []ScatterPoint, extra time.Duration) int {
	n := 0
	for _, p := range pts {
		if p.YSolved && p.XSolved && p.YTime <= p.XTime+extra {
			n++
		}
	}
	return n
}
