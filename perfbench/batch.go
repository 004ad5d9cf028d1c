package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/baselines/expand"
	"repro/internal/baselines/pedant"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

// The batch workloads are closed loops: one engine run at a time, each
// started when the previous one has returned, over a seeded slice of the
// generated suite. The slice is picked by what the generator knows (family,
// hardness tier, planted truth), never by running an engine first.

const (
	// batchWallLimit bounds every engine run. No verdict may depend on it:
	// the slices and budgets end every run on a verdict or a deterministic
	// budget far below it, and a run that reaches it fails.
	batchWallLimit = 10 * time.Second
	// manthan3RepairIterations is suite-manthan3's repair-iteration budget.
	// The engine's default of 2000 makes one budget-exhausted run last
	// 0.4–2.6 s on a 2-core host, so a 20 s run would hold a dozen of them
	// and its throughput would be decided by which dozen; at 200 a run holds
	// about 800 verdicts and the same instances still end on the budget.
	manthan3RepairIterations = 200
	// verifyConflictBudget bounds each independent VerifyVector check, as in
	// bench.RunEngine.
	verifyConflictBudget = 2_000_000
	// setupRepeats is how many times a run builds its inputs; setup_s is
	// the median.
	setupRepeats = 5
)

// families is the gen suite's family order.
var families = []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom}

// job is one engine run of a batch slice.
type job struct {
	engine string
	round  int
	named  gen.Named
	text   string // the instance as DQDIMACS; each run parses it, as the CLI reads its input file
}

func (j job) name() string { return j.engine + "/" + j.named.Name }

// batchSpec is one batch workload.
type batchSpec struct {
	name string
	// perSecond sizes the slice: a run of --seconds s holds
	// ceil(perSecond·seconds) items, rounded up to whole rounds. It was
	// calibrated so a run lasts about --seconds on a 2-core x86 host.
	perSecond float64
	// round returns the r-th stratified round of the slice; rounds use
	// disjoint instance indices, so no item repeats.
	round func(seed int64, r int) []job
}

var suiteManthan3 = batchSpec{
	name:      "suite-manthan3",
	perSecond: 34,
	// Every family × every hardness tier, one instance each: instance 5r+h-1
	// of a family is its tier-h instance of round r.
	round: func(seed int64, r int) []job {
		jobs := make([]job, 0, 20)
		for _, fam := range families {
			for h := 1; h <= 5; h++ {
				jobs = append(jobs, job{engine: "manthan3", named: gen.Generate(fam, 5*r+h-1, seed)})
			}
		}
		return jobs
	},
}

var suiteBaselines = batchSpec{
	name:      "suite-baselines",
	perSecond: 22,
	// expand on tiers 1–2 of every family; pedant on tier 1 of controller
	// and sat2dqbf. Tier-3 expansions take 0.5–3.6 s each, so a run would
	// hold about ten, and tiers 4–5 stop at once on the expansion size limit.
	// pedant takes 0.1–3.6 s on an equiv tier-1 instance and 10–640 ms on a
	// random one, so a run's time would be set by the few slow ones it drew
	// (random tier 1 alone moved a run's pedant time by 2.9 s between two
	// seeds); above tier 1 its runs mostly end on the wall clock, except on
	// sat2dqbf, where they take 2–20 ms and would put 40% more items below
	// the tail, leaving verdict_ms_p90 on the edge of the slow items, where
	// it moved ±15% between seeds.
	round: func(seed int64, r int) []job {
		jobs := make([]job, 0, 10)
		for _, fam := range families {
			tier1 := gen.Generate(fam, 5*r, seed)
			jobs = append(jobs,
				job{engine: "expand", named: tier1},
				job{engine: "expand", named: gen.Generate(fam, 5*r+1, seed)})
			if fam == gen.FamilyController || fam == gen.FamilySAT2DQBF {
				jobs = append(jobs, job{engine: "pedant", named: tier1})
			}
		}
		return jobs
	},
}

// buildSlice generates and renders the slice of one run.
func buildSlice(spec batchSpec, seed int64, seconds int) ([]job, error) {
	target := int(math.Ceil(spec.perSecond * float64(seconds)))
	var jobs []job
	for r := 0; len(jobs) < target; r++ {
		for _, j := range spec.round(seed, r) {
			j.round = r
			jobs = append(jobs, j)
		}
	}
	for i := range jobs {
		var sb strings.Builder
		if err := dqbf.WriteDQDIMACS(&sb, jobs[i].named.DQBF); err != nil {
			return nil, err
		}
		jobs[i].text = sb.String()
	}
	return jobs, nil
}

// engineRun is what one engine call returned.
type engineRun struct {
	vec    *dqbf.FuncVector
	err    error
	phases []backend.PhaseStat
	core   *core.Stats
	expand *expand.Stats
}

// runEngine calls the engine's public entry point with the settings
// bench.RunEngine uses: one learn, preprocessing and verification worker per
// run, the engine seed equal to the workload seed, and otherwise the
// engines' defaults (except suite-manthan3's repair-iteration budget).
func runEngine(ctx context.Context, engine string, in *dqbf.Instance, seed int64, logf func(string, ...any)) engineRun {
	switch engine {
	case "manthan3":
		res, err := core.Synthesize(ctx, in, core.Options{
			Seed: seed, LearnWorkers: 1, PreprocWorkers: 1, VerifyWorkers: 1,
			MaxRepairIterations: manthan3RepairIterations, Logf: logf,
		})
		if err != nil {
			return engineRun{err: err}
		}
		return engineRun{vec: res.Vector, phases: res.Stats.Phases, core: &res.Stats}
	case "expand":
		res, err := expand.Solve(ctx, in, expand.Options{})
		if err != nil {
			return engineRun{err: err}
		}
		return engineRun{vec: res.Vector, phases: res.Stats.Phases, expand: &res.Stats}
	case "pedant":
		res, err := pedant.Solve(ctx, in, pedant.Options{DefineWorkers: 1})
		if err != nil {
			return engineRun{err: err}
		}
		return engineRun{vec: res.Vector, phases: res.Stats.Phases}
	}
	return engineRun{err: errors.New("unknown engine " + engine)}
}

// Outcome classes the benchmark adds to the backend taxonomy.
const (
	outcomeWall         = "wall"         // the run reached batchWallLimit
	outcomeUnclassified = "unclassified" // an error outside every engine's taxonomy
)

// classify maps an engine error onto the backend outcome strings. Reaching
// the wall limit is checked first: every engine wraps the context error in
// its budget sentinel, and the wall limit is the only way the benchmark
// cancels a run.
func classify(err error) string {
	switch {
	case err == nil:
		return backend.OutcomeOK
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, core.ErrCanceled):
		return outcomeWall
	case errors.Is(err, core.ErrFalse), errors.Is(err, expand.ErrFalse), errors.Is(err, pedant.ErrFalse):
		return backend.OutcomeFalse
	case errors.Is(err, core.ErrIncomplete):
		return backend.OutcomeIncomplete
	case errors.Is(err, expand.ErrTooLarge), errors.Is(err, pedant.ErrTooLarge):
		return backend.OutcomeTooLarge
	case errors.Is(err, core.ErrBudget), errors.Is(err, expand.ErrBudget), errors.Is(err, pedant.ErrBudget):
		return backend.OutcomeBudget
	case errors.Is(err, core.ErrInternal), errors.Is(err, pedant.ErrInternal):
		return backend.OutcomeInternal
	}
	return outcomeUnclassified
}

// engineLayer and engineCall name, per engine, its layer and the public
// function the benchmark calls, as spans and metrics show them.
var (
	engineLayer = map[string]string{"manthan3": "core", "expand": "expand", "pedant": "pedant"}
	engineCall  = map[string]string{"manthan3": "core.Synthesize", "expand": "expand.Solve", "pedant": "pedant.Solve"}
)

// runBatch runs one batch workload. Each item's timed region is what the CLI
// does for one input file up to the verdict: parse the DQDIMACS text and run
// the engine. Verification follows outside it. The certificate is not
// rendered: dqbf.WriteCertificate prints each function as a tree, and the
// DAG of one suite vector (controller-021-h2, seed 1) renders to 961 MB in
// 31 s, so rendering is measured on serve's instances only.
func runBatch(spec batchSpec, cfg config) (*runResult, error) {
	res := &runResult{workload: spec.name, failLatency: batchWallLimit, signature: map[string]string{}}
	var jobs []job
	for i := 0; i < setupRepeats; i++ {
		jobs = nil
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var err error
		if jobs, err = buildSlice(spec, cfg.seed, cfg.seconds); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	runtime.GC()
	// The rates come from the slice's rounds, each an equal share of every
	// stratum: the median round's rate is steadier than the slice total,
	// which one heavy instance or one stretch of a busy host can move.
	roundItems := make([]int, jobs[len(jobs)-1].round+1)
	roundTime := make([]time.Duration, len(roundItems))

	tr := cfg.tracer
	acc := newLayerAcc()
	var prog *coreProgress
	var logf func(string, ...any)
	if tr != nil {
		prog = &coreProgress{}
		logf = prog.logf
	}
	var slowest, verifyTotal time.Duration
	var coreCalls, coreAttributed time.Duration
	start := time.Now()
	root := tr.open(0, -1, spec.name, start)
	for i, j := range jobs {
		t0 := time.Now()
		itemID := tr.open(root, i, "item", t0)
		in, err := dqbf.ParseDQDIMACS(strings.NewReader(j.text))
		t1 := time.Now()
		if err != nil {
			res.problemf("%s: re-parsing the generated instance: %v", j.name(), err)
			res.items = append(res.items, item{name: j.name(), outcome: outcomeUnclassified, failed: true})
			continue
		}
		if prog != nil {
			prog.reset()
		}
		ctx, cancel := context.WithTimeout(context.Background(), batchWallLimit)
		run := runEngine(ctx, j.engine, in, cfg.seed, logf)
		cancel()
		t2 := time.Now()

		// Outside the timed region: check the verdict.
		it := item{name: j.name(), outcome: classify(run.err), latency: t2.Sub(t0)}
		v0 := time.Now()
		checkBatchVerdict(res, j, run, &it)
		v1 := time.Now()
		verifyTotal += v1.Sub(v0)
		slowest = max(slowest, t2.Sub(t1))
		res.items = append(res.items, it)
		roundItems[j.round]++
		roundTime[j.round] += it.latency
		res.signature[it.name] = it.outcome

		if tr == nil {
			continue
		}
		tr.add(itemID, i, "dqbf.ParseDQDIMACS", t0, t1)
		callID := tr.add(itemID, i, engineCall[j.engine], t1, t2)
		names, durs := phaseSpans(j.engine, run.phases)
		tr.addSeq(callID, i, t1, names, durs)
		tr.add(itemID, i, "dqbf.VerifyVector", v0, v1)
		tr.close(itemID, v1)

		acc.add("dqbf.parse_ms", ms(t1.Sub(t0)))
		acc.add("dqbf.verify_ms", ms(v1.Sub(v0)))
		attributed := acc.addPhases(j.engine, run.phases)
		switch j.engine {
		case "manthan3":
			coreCalls += t2.Sub(t1)
			coreAttributed += attributed
			acc.addCoreStats(run.core)
			acc.add("core.repair_iterations", float64(len(prog.iterations)))
			acc.iterGaps = prog.iterationGaps(acc.iterGaps)
			if run.core == nil && !prog.learned.IsZero() {
				// No Result, so no phases: rebuild the run from its
				// progress lines.
				acc.add("core.unattributed_verify_repair_s", t2.Sub(prog.learned).Seconds())
				if !prog.preprocessed.IsZero() {
					tr.add(callID, i, "core.preprocess (rebuilt)", t1, prog.preprocessed)
					tr.add(callID, i, "core.sample+learn (rebuilt)", prog.preprocessed, prog.learned)
				}
				tr.add(callID, i, "core.verify-repair (rebuilt)", prog.learned, t2)
			}
		case "expand":
			if run.expand != nil {
				acc.add("expand.clauses_out", float64(run.expand.ClausesOut))
				acc.add("sat.conflicts", float64(run.expand.SATConfl))
			}
		}
	}
	end := time.Now()
	tr.close(root, end)
	res.wall = end.Sub(start) - verifyTotal
	var rates []float64
	for r, n := range roundItems {
		if roundTime[r] > 0 {
			rates = append(rates, float64(n)/roundTime[r].Seconds())
		}
	}
	solved := 0
	for _, it := range res.items {
		if it.solved {
			solved++
		}
	}
	res.rate = median(rates)
	res.goodRate = res.rate * float64(solved) / float64(len(res.items))

	res.notef("slowest engine run %.1f ms: %.2f s below the %v wall limit",
		ms(slowest), (batchWallLimit - slowest).Seconds(), batchWallLimit)
	if tr != nil {
		acc.add("core.unattributed_s", (coreCalls - coreAttributed).Seconds())
		acc.set("core.repair_iter_us_p50", median(acc.iterGaps))
		res.layers = acc.m
	}
	return res, nil
}

// checkBatchVerdict classifies one engine run's verdict: a vector must pass
// dqbf.VerifyVector on the generated instance and a False verdict must not
// contradict the planted truth. An engine panic, an error outside every
// engine's taxonomy and a run decided by the wall clock are wrong results
// too. Budget, incomplete and too-large runs are classified verdicts that
// solve nothing.
func checkBatchVerdict(res *runResult, j job, run engineRun, it *item) {
	switch it.outcome {
	case backend.OutcomeOK:
		vr, err := dqbf.VerifyVector(j.named.DQBF, run.vec, verifyConflictBudget)
		if err != nil || !vr.Valid {
			it.failed = true
			res.problemf("%s: vector fails independent verification (%v)", it.name, err)
			return
		}
		it.solved = true
	case backend.OutcomeFalse:
		if j.named.Known == gen.TruthTrue {
			it.failed = true
			res.problemf("%s: False verdict on a planted-True instance", it.name)
			return
		}
		it.solved = true
	case outcomeWall:
		it.failed = true
		res.problemf("%s: decided by the %v wall limit", it.name, batchWallLimit)
	case backend.OutcomeInternal:
		it.failed = true
		res.problemf("%s: engine panic: %v", it.name, run.err)
	case outcomeUnclassified:
		it.failed = true
		res.problemf("%s: unclassified error: %v", it.name, run.err)
	}
}

// phaseSpans turns an engine's phase telemetry into child span names and
// durations ("core.verify-repair", "expand.solve", …).
func phaseSpans(engine string, phases []backend.PhaseStat) ([]string, []time.Duration) {
	names := make([]string, len(phases))
	durs := make([]time.Duration, len(phases))
	for i, p := range phases {
		names[i] = engineLayer[engine] + "." + p.Name
		durs[i] = p.Duration
	}
	return names, durs
}
