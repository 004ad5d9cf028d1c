package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/oracle"
)

// plantedChainInstance builds a True instance with nY existentials over nX
// universals where every dependency set is the full universal block and ϕ
// asserts Y ↔ planted functions chained through Tseitin auxiliaries — equal
// dependency sets force heavy Y-as-feature learning, the regime where the
// speculative parallel learn phase can disagree with the serial semantics
// and the merge's relearn path matters.
func plantedChainInstance(seed int64, nX, nY int) *dqbf.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := dqbf.NewInstance()
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	allX := append([]cnf.Var(nil), in.Univ...)
	b := boolfunc.NewBuilder()
	planted := make(map[cnf.Var]boolfunc.Node, nY)
	for j := 0; j < nY; j++ {
		y := cnf.Var(nX + j + 1)
		in.AddExist(y, allX)
		f := b.Const(rng.Intn(2) == 0)
		for i := 1; i <= nX; i++ {
			switch rng.Intn(3) {
			case 0:
				f = b.And(f, b.Var(cnf.Var(i)))
			case 1:
				f = b.Or(f, b.Var(cnf.Var(i)))
			default:
				f = b.Xor(f, b.Var(cnf.Var(i)))
			}
		}
		planted[y] = f
	}
	for j := 0; j < nY; j++ {
		y := cnf.Var(nX + j + 1)
		out := b.ToCNF(planted[y], in.Matrix, boolfunc.CNFOptions{})
		in.Matrix.AddEquivLit(cnf.PosLit(y), out)
	}
	// Tseitin auxiliaries become existentials with full dependencies.
	declared := make(map[cnf.Var]bool)
	for _, v := range in.Univ {
		declared[v] = true
	}
	for _, v := range in.Exist {
		declared[v] = true
	}
	for _, c := range in.Matrix.Clauses {
		for _, l := range c {
			if !declared[l.Var()] {
				declared[l.Var()] = true
				in.AddExist(l.Var(), allX)
			}
		}
	}
	return in
}

// outcomeFingerprint renders a synthesis outcome under the given Options as
// a comparable string: the full certificate on success (bit-identical
// functions ⇒ identical certificates) plus every stat the parallel phases
// influence — including the preprocessing verdicts, total oracle calls, and
// the per-phase call counts — or the error text on failure. It leaves out
// Stats.LearnConflicts, which counts discarded speculative trees and so
// reads 0 with one learn worker whatever it reads with more.
func outcomeFingerprint(t *testing.T, in *dqbf.Instance, opts Options) string {
	t.Helper()
	res, err := Synthesize(context.Background(), in, opts)
	if err != nil {
		if !errors.Is(err, ErrIncomplete) && !errors.Is(err, ErrBudget) {
			t.Fatalf("opts=%+v: unexpected error %v", opts, err)
		}
		return "error: " + err.Error()
	}
	var sb strings.Builder
	if err := dqbf.WriteCertificate(&sb, res.Vector); err != nil {
		t.Fatalf("opts=%+v: certificate: %v", opts, err)
	}
	fmt.Fprintf(&sb, "stats: samples=%d verify=%d repairs=%d rowRepairs=%d learnConflicts=%d unates=%d defined=%d oracle=%d\n",
		res.Stats.Samples, res.Stats.VerifyCalls, res.Stats.CandidatesRepaired, res.Stats.RowRepairs,
		res.Stats.LearnConflicts, res.Stats.UnatesDetected, res.Stats.DefinedVars, res.Stats.OracleCalls)
	for _, p := range res.Stats.Phases {
		fmt.Fprintf(&sb, "phase %s: %d oracle calls\n", p.Name, p.OracleCalls)
	}
	return sb.String()
}

// TestParallelLearnDeterministic asserts the headline property of the
// parallel learn phase: for a fixed seed, the synthesized Skolem/Henkin
// functions are bit-identical regardless of the worker count. One worker
// learns each tree against the current dependency matrix, so it discards
// no tree (Stats.LearnConflicts is 0) and still matches the speculative
// learning of several workers.
func TestParallelLearnDeterministic(t *testing.T) {
	instances := map[string]*dqbf.Instance{
		"paper":    paperExample(),
		"chain-a":  plantedChainInstance(3, 4, 5),
		"chain-b":  plantedChainInstance(11, 3, 8),
		"wide-dep": plantedChainInstance(23, 5, 3),
	}
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for name, in := range instances {
		res, err := Synthesize(context.Background(), in, Options{Seed: 7, LearnWorkers: 1})
		if err == nil && res.Stats.LearnConflicts != 0 {
			t.Fatalf("%s: one learn worker discarded %d trees, want 0", name, res.Stats.LearnConflicts)
		}
		want := outcomeFingerprint(t, in, Options{Seed: 7, LearnWorkers: workerCounts[0]})
		for _, w := range workerCounts[1:] {
			if got := outcomeFingerprint(t, in, Options{Seed: 7, LearnWorkers: w}); got != want {
				t.Fatalf("%s: workers=%d diverges from workers=%d:\n--- want ---\n%s\n--- got ---\n%s",
					name, w, workerCounts[0], want, got)
			}
		}
	}

	// Gate definitions fix every existential of the chains above, so they
	// learn nothing. sat2dqbf-004-h5's constants take each other as features,
	// so speculative trees there use features an earlier merge banned; its
	// runs stop incomplete, so the learned candidates are compared directly.
	in := gen.Generate(gen.FamilySAT2DQBF, 4, 1).DQBF
	want, conflicts := learnedFunctions(t, in, Options{Seed: 7, LearnWorkers: workerCounts[0]})
	if conflicts != 0 {
		t.Fatalf("sat2dqbf-004-h5: one learn worker discarded %d trees, want 0", conflicts)
	}
	relearned := 0
	for _, w := range workerCounts[1:] {
		got, conflicts := learnedFunctions(t, in, Options{Seed: 7, LearnWorkers: w})
		if got != want {
			t.Fatalf("sat2dqbf-004-h5: workers=%d learns other candidates than one worker:\n--- want ---\n%s\n--- got ---\n%s", w, want, got)
		}
		relearned += conflicts
	}
	if relearned == 0 {
		t.Fatal("sat2dqbf-004-h5: no speculative tree was relearned; the merge's relearn path went unchecked")
	}
}

// learnedFunctions runs the phases up to learning and renders every
// candidate in declaration order, with the run's Stats.LearnConflicts.
func learnedFunctions(t *testing.T, in *dqbf.Instance, opts Options) (string, int) {
	t.Helper()
	e := newEngine(context.Background(), in, opts.withDefaults())
	for _, phase := range []func() error{e.preprocess, e.samplePhase, e.learnPhase} {
		if err := phase(); err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
	}
	var sb strings.Builder
	for _, y := range in.Exist {
		fmt.Fprintf(&sb, "y%d := %s\n", y, e.b.String(e.funcs[y]))
	}
	return sb.String(), e.stats.LearnConflicts
}

// preprocHeavyInstance builds a True instance whose existentials exercise
// every preprocessing verdict: a constant of ϕ (both polarities occur but
// ϕ ∧ y1 is UNSAT), which the semantic unate check fixes, a syntactic
// unate, a semantic unate (equal cofactors), and functions no unate check
// fixes.
func preprocHeavyInstance() *dqbf.Instance {
	in := dqbf.NewInstance()
	in.AddUniv(1) // x1
	in.AddUniv(2) // x2
	allX := []cnf.Var{1, 2}
	y1, y2, y3, y4, y5 := cnf.Var(3), cnf.Var(4), cnf.Var(5), cnf.Var(6), cnf.Var(7)
	for _, y := range []cnf.Var{y1, y2, y3, y4, y5} {
		in.AddExist(y, allX)
	}
	// y1: constant 0 — (¬y1∨x1) ∧ (¬y1∨¬x1) force it false while (y1∨y2)
	// gives it a positive occurrence (and makes y2 syntactically
	// positive-unate: y2 never occurs negated), so only the semantic check
	// finds it, as negative unate.
	in.Matrix.AddClause(-3, 1)
	in.Matrix.AddClause(-3, -1)
	in.Matrix.AddClause(3, 4)
	// y3 ↔ x1: uniquely defined, neither constant nor unate.
	in.Matrix.AddClause(-5, 1)
	in.Matrix.AddClause(5, -1)
	// y4: semantic positive unate with both polarities occurring — setting
	// y4 drops (y4∨x1) and leaves (¬y4∨y2), which the forced y2=1
	// satisfies, so ϕ[y4:=0] ∧ ¬ϕ[y4:=1] is UNSAT although ϕ allows y4
	// both values.
	in.Matrix.AddClause(6, 1)
	in.Matrix.AddClause(-6, 4)
	// y5 ↔ (x1 ∨ x2): a function the learn phase must actually learn.
	in.Matrix.AddClause(-7, 1, 2)
	in.Matrix.AddClause(7, -1)
	in.Matrix.AddClause(7, -2)
	return in
}

// fixedFunctions runs the preprocess phase alone and renders every fixed
// existential's function in declaration order.
func fixedFunctions(t *testing.T, in *dqbf.Instance, opts Options) string {
	t.Helper()
	e := newEngine(context.Background(), in, opts.withDefaults())
	if err := e.preprocess(); err != nil {
		t.Fatalf("opts=%+v: preprocess: %v", opts, err)
	}
	var sb strings.Builder
	for _, y := range in.Exist {
		if e.fixed[y] {
			fmt.Fprintf(&sb, "y%d := %s\n", y, e.b.String(e.funcs[y]))
		}
	}
	return sb.String()
}

// TestParallelPreprocessDeterministic asserts the headline property of the
// parallel preprocessing phase: for a fixed seed, the fixed set, the
// synthesized constants and gate definitions, the preprocessing
// statistics, and the final functions are bit-identical for every
// PreprocWorkers count.
func TestParallelPreprocessDeterministic(t *testing.T) {
	// Sanity-check the crafted instance actually exercises the semantic
	// preprocessing paths (otherwise the determinism claim is vacuous).
	res, err := Synthesize(context.Background(), preprocHeavyInstance(), Options{Seed: 7, PreprocWorkers: 1})
	if err != nil {
		t.Fatalf("preprocHeavyInstance does not synthesize: %v", err)
	}
	// y2 is the one syntactic unate, so the semantic checks must add y1 and
	// y4.
	if res.Stats.UnatesDetected != 3 {
		t.Fatalf("preprocHeavyInstance: %d unates, want 3 (y2 syntactic, y1 and y4 semantic): %+v",
			res.Stats.UnatesDetected, res.Stats)
	}
	if res.Stats.PreprocSolversBuilt != 1 {
		t.Fatalf("PreprocWorkers=1 built %d pooled solvers, want 1", res.Stats.PreprocSolversBuilt)
	}

	// The planted chain's Tseitin auxiliaries and equiv-030-h1's are gates
	// the definitions step takes.
	equiv := gen.Generate(gen.FamilyEquiv, 30, 1).DQBF
	if res, err := Synthesize(context.Background(), equiv, Options{Seed: 7, PreprocWorkers: 1}); err != nil || res.Stats.DefinedVars == 0 {
		t.Fatalf("equiv-030-h1 defines no gate: %v", err)
	}

	instances := map[string]*dqbf.Instance{
		"preproc-heavy": preprocHeavyInstance(),
		"paper":         paperExample(),
		"chain":         plantedChainInstance(3, 4, 5),
		"chain-b":       plantedChainInstance(11, 3, 8),
		"equiv-030-h1":  equiv,
	}
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for name, in := range instances {
		fingerprint := func(w int) string {
			opts := Options{Seed: 7, PreprocWorkers: w}
			return fixedFunctions(t, in, opts) + outcomeFingerprint(t, in, opts)
		}
		want := fingerprint(workerCounts[0])
		for _, w := range workerCounts[1:] {
			if got := fingerprint(w); got != want {
				t.Fatalf("%s: pp-workers=%d diverges from pp-workers=%d:\n--- want ---\n%s\n--- got ---\n%s",
					name, w, workerCounts[0], want, got)
			}
		}
	}
}

// TestWorkerPanicIsInternal pins panic isolation inside the engine's own
// worker goroutines: a solve that panics on a preprocessing worker must fail
// the run with ErrInternal instead of crashing the process. The hook is set
// after newEngine, so the ϕ-solver's initial check runs clean and the first
// solvers to panic are the pooled preprocessing ones, queried from
// goroutines that oracle.ForEach started.
func TestWorkerPanicIsInternal(t *testing.T) {
	e := newEngine(context.Background(), preprocHeavyInstance(), Options{Seed: 7, PreprocWorkers: 2}.withDefaults())
	e.testSolveHook = func(int64) { panic("injected solve panic") }
	_, err := e.synthesize()
	if !errors.Is(err, ErrInternal) || !errors.Is(err, oracle.ErrPanic) {
		t.Fatalf("want ErrInternal wrapping oracle.ErrPanic, got %v", err)
	}
}

// TestPhaseTelemetry pins the phase-telemetry contract on the engine
// itself: the pipeline phases appear in order, every duration is non-zero,
// and each phase reports the oracle calls of the path it took. The sample
// phase takes one of four: ϕ of paperExample has six variables, so the
// sampler's exact path returns every model without a solver call; a
// support of 17–64 variables takes the row path, again with no solver
// call; over more than 64 the sampler draws; and when preprocessing fixed
// every existential the phase stays listed but samples nothing.
func TestPhaseTelemetry(t *testing.T) {
	phaseNames := func(res *Result) string {
		t.Helper()
		var names []string
		for _, p := range res.Stats.Phases {
			names = append(names, p.Name)
			if p.Duration <= 0 {
				t.Fatalf("phase %s has non-positive duration %v", p.Name, p.Duration)
			}
		}
		return strings.Join(names, ",")
	}
	const all = "preprocess,sample,learn,verify-repair"

	in := paperExample()
	res, err := Synthesize(context.Background(), in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := phaseNames(res); got != all {
		t.Fatalf("phases %q, want %q", got, all)
	}
	if res.Stats.Phases[0].OracleCalls == 0 {
		t.Fatalf("preprocess phase reports zero calls: %+v", res.Stats.Phases)
	}
	if res.Stats.OracleCalls == 0 {
		t.Fatal("Stats.OracleCalls is zero")
	}
	models := 0
	a := cnf.NewAssignment(in.Matrix.NumVars)
	for code := 0; code < 1<<in.Matrix.NumVars; code++ {
		for v := 1; v <= in.Matrix.NumVars; v++ {
			a.SetBool(cnf.Var(v), code>>(v-1)&1 == 1)
		}
		if in.Matrix.Eval(a) {
			models++
		}
	}
	if sample := res.Stats.Phases[1]; sample.OracleCalls != 0 || res.Stats.Samples != models {
		t.Fatalf("enumerated sample phase: %d samples in %d calls, want ϕ's %d models in 0",
			res.Stats.Samples, sample.OracleCalls, models)
	}

	// 16 universals and 4 parity outputs: a support of 20 variables, so
	// the sampler takes 400 of the 2^16 rows.
	res, err = Synthesize(context.Background(), blockParityInstance(4, 4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := phaseNames(res); got != all {
		t.Fatalf("phases %q, want %q", got, all)
	}
	if res.Stats.Phases[1].OracleCalls != 0 || res.Stats.Samples != 400 {
		t.Fatalf("row sample phase: %d samples, %+v; want 400 in 0 calls", res.Stats.Samples, res.Stats.Phases[1])
	}

	// The same blocks with 48 more universals: a support of 68 variables,
	// so the sampler draws.
	res, err = Synthesize(context.Background(), idleUnivParityInstance(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := phaseNames(res); got != all {
		t.Fatalf("phases %q, want %q", got, all)
	}
	if res.Stats.Phases[1].OracleCalls == 0 || res.Stats.Samples == 0 {
		t.Fatalf("drawn sample phase: %d samples, %+v", res.Stats.Samples, res.Stats.Phases[1])
	}

	// Gate definitions fix all 23 existentials of this chain (see
	// TestNoSamplingWhenEveryExistentialFixed), so the sample phase, still
	// listed, has nothing to sample for.
	res, err = Synthesize(context.Background(), plantedChainInstance(1, 8, 3), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := phaseNames(res); got != all {
		t.Fatalf("phases with every existential fixed %q, want %q", got, all)
	}
	if res.Stats.Phases[1].OracleCalls != 0 || res.Stats.Samples != 0 {
		t.Fatalf("skipped sample phase: %d samples, %+v", res.Stats.Samples, res.Stats.Phases[1])
	}

	// The zero-existential tautology fast path must honor the contract too.
	in = dqbf.NewInstance()
	in.AddUniv(1)
	in.Matrix.AddClause(1, -1)
	res, err = Synthesize(context.Background(), in, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Phases) == 0 || res.Stats.Phases[0].Duration <= 0 ||
		res.Stats.Phases[0].OracleCalls == 0 || res.Stats.OracleCalls == 0 {
		t.Fatalf("tautology fast path breaks the phase contract: %+v", res.Stats)
	}
}

// TestSynthesizeCancellationPrompt asserts that canceling the context of a
// long-running Synthesize returns promptly (target ~10 ms; the bound below
// is slack for loaded CI machines) with a status distinguishable from budget
// exhaustion.
func TestSynthesizeCancellationPrompt(t *testing.T) {
	// Five 4-input parity blocks and two universals ϕ does not read: a
	// support of 27 variables, so the sampler's row path takes each of the
	// 2^22 rows, all open, one word each, which runs far longer than the
	// wait below (about 0.9 s on a 2-CPU host, where the 2^20 rows of the
	// blocks alone took 0.2 s and the whole run 0.26 s), and cancellation
	// must cut it short. Each output occurs in both polarities, in clauses
	// too wide for a gate definition, so preprocessing leaves them to
	// sampling; an instance it fixed entirely would skip sampling and could
	// be decided before the cancel arrives.
	in := blockParityInstance(5, 4)
	in.AddUniv(26)
	in.AddUniv(27)
	e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
	if err := e.preprocess(); err != nil {
		t.Fatal(err)
	}
	if fixed := e.stats.UnatesDetected + e.stats.DefinedVars; fixed >= len(in.Exist) {
		t.Fatalf("preprocessing fixed %d of %d existentials; the run would not sample", fixed, len(in.Exist))
	}

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := Synthesize(ctx, in, Options{Seed: 1, numSamples: 1 << 30})
		done <- outcome{err: err, at: time.Now()}
	}()
	time.Sleep(50 * time.Millisecond) // let it get deep into sampling
	canceledAt := time.Now()
	cancel()
	select {
	case o := <-done:
		latency := o.at.Sub(canceledAt)
		if o.err == nil {
			t.Fatal("canceled synthesis returned a result")
		}
		if !errors.Is(o.err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", o.err)
		}
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("ctx error missing from the chain: %v", o.err)
		}
		if errors.Is(o.err, ErrBudget) {
			t.Fatalf("cancellation not distinguishable from budget exhaustion: %v", o.err)
		}
		if latency > 100*time.Millisecond {
			t.Fatalf("cancellation latency %v, want ~10ms", latency)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synthesis did not return after cancellation")
	}
}
