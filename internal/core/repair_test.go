package core

import (
	"context"
	"testing"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/sat"
)

// TestRepairAlignsSigmaWithRepairedOutput is the regression test for the
// Algorithm 3 line-18 bug: σ[yk] was refreshed with the PRE-repair candidate
// output σ[y′k] even on the UNSAT branch, where the repair just flipped fk's
// output at σ. With two queued candidates the second one's Ŷ assumption then
// read the stale (un-repaired) value.
//
// Setup: X = {x1}, ya = y2 with H = {x1}, yb = y3 with H = {x1};
// ϕ = (ya ↔ ¬x) ∧ (yb ↔ ya). Candidates fa = fb = x (wrong everywhere).
// Order is [yb, ya], so when repairing yb (second in the queue) its Ŷ set is
// {ya} and its Gk assumptions read σ[ya] — which must by then hold the
// repaired output of fa at σ, not the stale pre-repair output.
func TestRepairAlignsSigmaWithRepairedOutput(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1}) // ya
	in.AddExist(3, []cnf.Var{1}) // yb
	in.Matrix.AddClause(-2, -1)  // ya → ¬x
	in.Matrix.AddClause(2, 1)    // ¬x → ya
	in.Matrix.AddClause(-3, 2)   // yb → ya
	in.Matrix.AddClause(3, -2)   // ya → yb

	e := &Engine{
		in:    in,
		opts:  Options{}.withDefaults(),
		b:     boolfunc.NewBuilder(),
		funcs: make(map[cnf.Var]boolfunc.Node),
		fixed: make(map[cnf.Var]bool),
		deps:  map[cnf.Var]map[cnf.Var]bool{2: {}, 3: {}},
		up:    map[cnf.Var]map[cnf.Var]bool{2: {}, 3: {}},
		dirty: make(map[cnf.Var]bool),
	}
	e.funcs[2] = e.b.Var(1)
	e.funcs[3] = e.b.Var(1)
	e.order = []cnf.Var{3, 2}
	e.orderIdx = map[cnf.Var]int{3: 0, 2: 1}
	e.phiSolver = sat.New()
	e.phiSolver.AddFormula(in.Matrix)

	// Counterexample at x = 1: both candidates output 1, but ϕ forces
	// ya = yb = 0 there.
	sigma := &counterexample{
		x:      cnf.NewAssignment(in.Matrix.NumVars),
		y:      cnf.NewAssignment(in.Matrix.NumVars),
		yPrime: cnf.NewAssignment(in.Matrix.NumVars),
	}
	sigma.x.Set(1, cnf.True)
	sigma.y.Set(2, cnf.False)
	sigma.y.Set(3, cnf.False)
	sigma.yPrime.Set(2, cnf.True)
	sigma.yPrime.Set(3, cnf.True)

	progressed, err := e.repair(sigma)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !progressed {
		t.Fatal("repair made no progress")
	}
	// Algorithm 3 line 18: for every processed candidate, σ[yk] must equal
	// the CURRENT (possibly repaired) candidate's output at σ.
	for _, y := range []cnf.Var{2, 3} {
		want := cnf.BoolValue(e.evalAtSigma(e.funcs[y], sigma))
		if got := sigma.y.Get(y); got != want {
			t.Fatalf("σ[y%d] = %v, want the repaired candidate output %v", y, got, want)
		}
	}
	// The strengthening of fa at σ (x=1, output was 1) must flip its output
	// to 0 there — and σ must reflect it.
	a := cnf.NewAssignment(in.Matrix.NumVars)
	a.Set(1, cnf.True)
	a.Set(2, sigma.y.Get(2))
	a.Set(3, sigma.y.Get(3))
	if e.b.Eval(e.funcs[2], a) {
		t.Fatal("fa was not strengthened at the counterexample point")
	}
	if sigma.y.Get(2) != cnf.False {
		t.Fatalf("σ[ya] = %v after a repair that forced fa(σ) = 0", sigma.y.Get(2))
	}
}

// TestFindCandiLocalizesMinimally pins FindCandi's MaxSAT localization: it
// returns a smallest set of candidates to repair, not every candidate that
// disagrees with the genuine completion. On ∀x1 ∃^{x1}y2 ∃^{x1}y3 .
// (x1 ∨ y2 ∨ y3) at σ[x1] = 0 the candidates output δ[Y′] = (0, 0) and the
// completion is π[Y] = (1, 1), so both candidates disagree with π, but
// flipping either one alone satisfies ϕ.
func TestFindCandiLocalizesMinimally(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.AddExist(3, []cnf.Var{1})
	in.Matrix.AddClause(1, 2, 3)
	e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
	n := in.Matrix.NumVars
	sigma := &counterexample{x: cnf.NewAssignment(n), y: cnf.NewAssignment(n), yPrime: cnf.NewAssignment(n)}
	sigma.x.Set(1, cnf.False)
	for _, y := range in.Exist {
		sigma.y.Set(y, cnf.True)
		sigma.yPrime.Set(y, cnf.False)
	}

	ind, err := e.findCandi(sigma)
	if err != nil {
		t.Fatalf("findCandi: %v", err)
	}
	if len(ind) != 1 {
		t.Fatalf("findCandi returned %v, want one candidate", ind)
	}
	// σ[Y] is now the MaxSAT model: a completion of σ[X] that differs from
	// δ[Y′] on the returned candidate alone.
	a := cnf.NewAssignment(n)
	a.Set(1, sigma.x.Get(1))
	for _, y := range in.Exist {
		a.Set(y, sigma.y.Get(y))
		if differs := sigma.y.Get(y) != sigma.yPrime.Get(y); differs != (y == ind[0]) {
			t.Fatalf("σ[y%d] = %v, δ[y′%d] = %v, candidates %v", y, sigma.y.Get(y), y, sigma.yPrime.Get(y), ind)
		}
	}
	if !in.Matrix.Eval(a) {
		t.Fatalf("σ = %v is not a model of ϕ", a)
	}
}

// TestVerifySolverPersistent checks the persistent-oracle acceptance
// criterion: a multi-iteration synthesis run constructs exactly one
// verification solver and re-encodes only changed candidates.
func TestVerifySolverPersistent(t *testing.T) {
	in := parityInstance(4)
	res, err := Synthesize(context.Background(), in, repairHeavyOptions(1))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if res.Stats.RepairIterations < 2 {
		t.Fatalf("instance not repair-heavy enough: %d iterations", res.Stats.RepairIterations)
	}
	if res.Stats.VerifySolversBuilt != 1 {
		t.Fatalf("VerifySolversBuilt = %d, want 1 (persistent verification solver)",
			res.Stats.VerifySolversBuilt)
	}
	if res.Stats.CandidateReencodes == 0 {
		t.Fatal("no candidate re-encodes recorded despite repairs")
	}
	// Repairs touch a strict subset of candidates per iteration; re-encodes
	// must not exceed candidates-repaired (one re-encode per changed
	// candidate per verify round, not a full E rebuild).
	if res.Stats.CandidateReencodes > res.Stats.CandidatesRepaired {
		t.Fatalf("re-encodes (%d) exceed candidate repairs (%d): full re-encode suspected",
			res.Stats.CandidateReencodes, res.Stats.CandidatesRepaired)
	}
}

// TestVerifyRepairAllocBudget pins the zero-alloc verify–repair acceptance
// bar as a plain test: a full repair-heavy synthesis run must stay under
// 2,000 heap allocations — the arena-backed function DAG and the
// engine-owned repair scratch together brought it down from ~10,700, and
// this guard keeps incidental per-round allocations from creeping back in.
func TestVerifyRepairAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the non-race pass")
	}
	if testing.Short() {
		t.Skip("multi-run synthesis guard is not short")
	}
	in := parityInstance(5)
	opts := repairHeavyOptions(1)
	run := func() {
		if _, err := Synthesize(context.Background(), in, opts); err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
	}
	run() // warm-up, mirroring the benchmark's sanity run
	if avg := testing.AllocsPerRun(5, run); avg >= 2000 {
		t.Fatalf("verify–repair synthesis allocates %.0f objects per run, want < 2000", avg)
	}
}

// TestRowRepairGeneralizes runs the verify-repair loop from hand-set
// candidates on two instances whose Gk is satisfiable at every
// counterexample only because a universal outside Hk, h, excuses the
// candidate's output. The row repair's Gk with all of X pinned is UNSAT,
// and its core, less h, patches the whole cube it names at once: a repair
// of one full row σ[Hk] per round would take four rounds on the first
// instance and, since blame queues y2 on the second, none at all there. A
// third subtest requires a whole run on a generated controller to patch
// rows.
func TestRowRepairGeneralizes(t *testing.T) {
	verifyRepairFrom := func(t *testing.T, in *dqbf.Instance, set func(b *boolfunc.Builder) map[cnf.Var]boolfunc.Node) *Engine {
		t.Helper()
		e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
		for y, f := range set(e.b) {
			e.funcs[y] = f
		}
		e.findOrder()
		if err := e.verifyRepair(); err != nil {
			t.Fatalf("verifyRepair: %v", err)
		}
		if e.stats.RepairIterations != 1 || e.stats.RowRepairs != 1 {
			t.Fatalf("%d rounds and %d row repairs, want 1 and 1", e.stats.RepairIterations, e.stats.RowRepairs)
		}
		return e
	}

	t.Run("cube", func(t *testing.T) {
		// ∀x1 x2 x3 h ∃^{x1,x2,x3}y . (y ↔ x1) ∨ h, from y := 0.
		in := dqbf.NewInstance()
		for x := cnf.Var(1); x <= 4; x++ {
			in.AddUniv(x)
		}
		in.AddExist(5, []cnf.Var{1, 2, 3})
		in.Matrix.AddClause(-5, 1, 4)
		in.Matrix.AddClause(5, -1, 4)
		e := verifyRepairFrom(t, in, func(b *boolfunc.Builder) map[cnf.Var]boolfunc.Node {
			return map[cnf.Var]boolfunc.Node{5: b.False()}
		})
		if e.funcs[5] != e.b.Var(1) {
			t.Fatalf("fy = %s, want x1", e.b.String(e.funcs[5]))
		}
	})

	t.Run("blamed", func(t *testing.T) {
		// ∀x1 h ∃^{x1}y1 ∃^{h}y2 . ((y1 ↔ x1) ∨ h) ∧ (y2 ↔ h), from y1 := 0
		// and y2 := h. y1's Gk is satisfied with h = 1, where y2's candidate
		// gives 0 and the model 1, so blame queues y2, which needs no repair.
		in := dqbf.NewInstance()
		in.AddUniv(1)
		in.AddUniv(2)
		in.AddExist(3, []cnf.Var{1})
		in.AddExist(4, []cnf.Var{2})
		in.Matrix.AddClause(-3, 1, 2)
		in.Matrix.AddClause(3, -1, 2)
		in.Matrix.AddClause(-4, 2)
		in.Matrix.AddClause(4, -2)
		e := verifyRepairFrom(t, in, func(b *boolfunc.Builder) map[cnf.Var]boolfunc.Node {
			return map[cnf.Var]boolfunc.Node{3: b.False(), 4: b.Var(2)}
		})
		if e.funcs[3] != e.b.Var(1) || e.funcs[4] != e.b.Var(2) {
			t.Fatalf("f1 = %s, f2 = %s; want x1 and h", e.b.String(e.funcs[3]), e.b.String(e.funcs[4]))
		}
	})

	t.Run("controller-008-h4", func(t *testing.T) {
		// The controller's escape circuit reads universals outside the
		// control bits' dependency sets, so Gk is satisfiable at most
		// counterexamples; from eight samples and stumps the run answers
		// through row repairs.
		in := gen.Generate(gen.FamilyController, 8, 1).DQBF
		res, err := Synthesize(context.Background(), in, Options{Seed: 7, numSamples: 8, treeMaxDepth: 1})
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		if res.Stats.RowRepairs == 0 {
			t.Fatalf("no row repair: %+v", res.Stats)
		}
	})
}
