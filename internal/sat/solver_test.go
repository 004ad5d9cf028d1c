package sat

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cnf"
)

// bruteForceSat enumerates all assignments of f (NumVars must be small).
func bruteForceSat(f *cnf.Formula) bool {
	n := f.NumVars
	for mask := 0; mask < 1<<n; mask++ {
		a := cnf.NewAssignment(n)
		for v := 1; v <= n; v++ {
			a.SetBool(cnf.Var(v), mask&(1<<(v-1)) != 0)
		}
		if f.Eval(a) {
			return true
		}
	}
	return false
}

// bruteForceCount enumerates the number of models of f over all its
// variables (NumVars must be small).
func bruteForceCount(f *cnf.Formula) int {
	n := f.NumVars
	count := 0
	for mask := 0; mask < 1<<n; mask++ {
		a := cnf.NewAssignment(n)
		for v := 1; v <= n; v++ {
			a.SetBool(cnf.Var(v), mask&(1<<(v-1)) != 0)
		}
		if f.Eval(a) {
			count++
		}
	}
	return count
}

func randomFormula(rng *rand.Rand, nVars, nClauses, maxLen int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(maxLen)
		c := make([]cnf.Lit, 0, k)
		for j := 0; j < k; j++ {
			v := cnf.Var(1 + rng.Intn(nVars))
			c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		f.AddClause(c...)
	}
	return f
}

func solveFormula(t *testing.T, f *cnf.Formula) (Status, cnf.Assignment) {
	t.Helper()
	s := New()
	s.AddFormula(f)
	st := s.Solve()
	if st == Sat {
		return st, s.Model()
	}
	return st, nil
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula: got %v, want SAT", got)
	}
}

func TestUnitClauses(t *testing.T) {
	f := cnf.New(3)
	f.AddUnit(1)
	f.AddUnit(-2)
	f.AddUnit(3)
	st, m := solveFormula(t, f)
	if st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	if m.Get(1) != cnf.True || m.Get(2) != cnf.False || m.Get(3) != cnf.True {
		t.Fatalf("bad model: %v", m)
	}
}

func TestContradictoryUnits(t *testing.T) {
	f := cnf.New(1)
	f.AddUnit(1)
	f.AddUnit(-1)
	st, _ := solveFormula(t, f)
	if st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("AddClause() of empty clause should report false")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want UNSAT", got)
	}
}

func TestSimplePropagationChain(t *testing.T) {
	// 1, 1→2, 2→3, 3→4 forces all true.
	f := cnf.New(4)
	f.AddUnit(1)
	f.AddClause(-1, 2)
	f.AddClause(-2, 3)
	f.AddClause(-3, 4)
	st, m := solveFormula(t, f)
	if st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	for v := cnf.Var(1); v <= 4; v++ {
		if m.Get(v) != cnf.True {
			t.Fatalf("var %d: got %v, want True", v, m.Get(v))
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons into n holes is UNSAT. Use n=4 (5 pigeons).
	n := 4
	f := cnf.New(0)
	varAt := make([][]cnf.Var, n+1)
	for p := 0; p <= n; p++ {
		varAt[p] = make([]cnf.Var, n)
		for h := 0; h < n; h++ {
			varAt[p][h] = f.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		c := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = cnf.PosLit(varAt[p][h])
		}
		f.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.AddClause(cnf.NegLit(varAt[p1][h]), cnf.NegLit(varAt[p2][h]))
			}
		}
	}
	st, _ := solveFormula(t, f)
	if st != Unsat {
		t.Fatalf("PHP(5,4): got %v, want UNSAT", st)
	}
}

func TestPigeonholeSatVariant(t *testing.T) {
	// n pigeons into n holes is SAT.
	n := 4
	f := cnf.New(0)
	varAt := make([][]cnf.Var, n)
	for p := 0; p < n; p++ {
		varAt[p] = make([]cnf.Var, n)
		for h := 0; h < n; h++ {
			varAt[p][h] = f.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		c := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = cnf.PosLit(varAt[p][h])
		}
		f.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				f.AddClause(cnf.NegLit(varAt[p1][h]), cnf.NegLit(varAt[p2][h]))
			}
		}
	}
	st, m := solveFormula(t, f)
	if st != Sat {
		t.Fatalf("PHP(4,4): got %v, want SAT", st)
	}
	if !f.Eval(m) {
		t.Fatal("model does not satisfy formula")
	}
}

// restrictRandomly restricts s to branching on a random subset (possibly
// empty) of the variables 1..n. The variables left out are mostly not
// implied by the subset, so the search must fall back to branching on them.
func restrictRandomly(rng *rand.Rand, s *Solver, n int) {
	var set []cnf.Var
	for v := 1; v <= n; v++ {
		if rng.Intn(2) == 0 {
			set = append(set, cnf.Var(v))
		}
	}
	s.RestrictBranching(set)
}

// fallbackDecisions counts the decisions on non-decision variables in the
// trail a Sat result leaves behind: the restricted search's fallback.
func fallbackDecisions(s *Solver) int {
	n := 0
	for lvl := len(s.assumptions); lvl < len(s.trailLim); lvl++ {
		if !s.decision[s.trail[s.trailLim[lvl]].varIdx()] {
			n++
		}
	}
	return n
}

// addGates appends k Tseitin-defined variables to f, each an AND or OR of
// two literals over the variables before it, plus a clause over each, so
// that the original variables define every added one.
func addGates(rng *rand.Rand, f *cnf.Formula, k int) {
	for i := 0; i < k; i++ {
		n := f.NumVars
		in := []cnf.Lit{
			cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0),
			cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0),
		}
		z := cnf.PosLit(f.NewVar())
		if rng.Intn(2) == 0 {
			f.AddAndN(z, in)
		} else {
			f.AddOrN(z, in)
		}
		f.AddClause(cnf.MkLit(z.Var(), rng.Intn(2) == 0), cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
	}
}

// Every formula is solved three ways: unrestricted, with branching
// restricted to a random subset of its variables, and extended by gates
// with branching restricted to the variables that define them. The
// restricted searches must give the same answers; the gated ones must never
// need the fallback, and the random subsets must need it.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	subsetFallbacks := 0
	for trial := 0; trial < 300; trial++ {
		nVars := 1 + rng.Intn(8)
		nClauses := 1 + rng.Intn(20)
		f := randomFormula(rng, nVars, nClauses, 3)
		want := bruteForceSat(f)
		st, m := solveFormula(t, f)
		if (st == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v formula:\n%s", trial, st, want, f)
		}
		if st == Sat && !f.Eval(m) {
			t.Fatalf("trial %d: returned model does not satisfy formula", trial)
		}

		sub := rand.New(rand.NewSource(int64(trial)))
		s := New()
		s.AddFormula(f)
		restrictRandomly(sub, s, nVars)
		if st := s.Solve(); (st == Sat) != want {
			t.Fatalf("trial %d: restricted solver=%v brute=%v formula:\n%s", trial, st, want, f)
		} else if st == Sat {
			if !f.Eval(s.Model()) {
				t.Fatalf("trial %d: restricted model does not satisfy formula", trial)
			}
			subsetFallbacks += fallbackDecisions(s)
		}

		g := f.Clone()
		addGates(sub, g, 1+sub.Intn(4))
		inputs := make([]cnf.Var, nVars)
		for i := range inputs {
			inputs[i] = cnf.Var(i + 1)
		}
		s = New()
		s.AddFormula(g)
		s.RestrictBranching(inputs)
		if st, want := s.Solve(), bruteForceSat(g); (st == Sat) != want {
			t.Fatalf("trial %d: gated solver=%v brute=%v formula:\n%s", trial, st, want, g)
		} else if st == Sat {
			if !g.Eval(s.Model()) {
				t.Fatalf("trial %d: gated model does not satisfy formula", trial)
			}
			if n := fallbackDecisions(s); n != 0 {
				t.Fatalf("trial %d: %d fallback decisions on defined variables", trial, n)
			}
		}
	}
	if subsetFallbacks == 0 {
		t.Fatal("no restricted search fell back; the fallback is untested")
	}
	t.Logf("%d fallback decisions over random subsets", subsetFallbacks)
}

func TestAssumptionsSatAndUnsat(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	s := New()
	s.AddFormula(f)
	if st := s.SolveAssume([]cnf.Lit{1, -3}); st != Unsat {
		t.Fatalf("assume {1,-3}: got %v, want UNSAT", st)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("empty core for failed assumptions")
	}
	coreSet := map[cnf.Lit]bool{}
	for _, l := range core {
		coreSet[l] = true
	}
	for l := range coreSet {
		if l != 1 && l != -3 {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
	// Solver must remain usable and consistent afterwards.
	if st := s.SolveAssume([]cnf.Lit{1, 3}); st != Sat {
		t.Fatalf("assume {1,3}: got %v, want SAT", st)
	}
	m := s.Model()
	if m.Get(1) != cnf.True || m.Get(3) != cnf.True {
		t.Fatalf("assumptions not honoured in model: %v", m)
	}
}

func TestCoreIsActuallyUnsat(t *testing.T) {
	// Chain: assumptions a1..a5 where a2 and a4 conflict via clauses.
	f := cnf.New(10)
	f.AddClause(-2, 6)
	f.AddClause(-4, -6)
	s := New()
	s.AddFormula(f)
	assumps := []cnf.Lit{1, 2, 3, 4, 5}
	if st := s.SolveAssume(assumps); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
	core := s.Core()
	// Re-solving with just the core must stay UNSAT.
	s2 := New()
	s2.AddFormula(f)
	if st := s2.SolveAssume(core); st != Unsat {
		t.Fatalf("core %v does not reproduce UNSAT", core)
	}
	// Core should not mention irrelevant assumptions 1,3,5.
	for _, l := range core {
		if l == 1 || l == 3 || l == 5 {
			t.Errorf("core contains irrelevant assumption %v", l)
		}
	}
}

// Each query runs once unrestricted and once with branching restricted to a
// random subset of the variables.
func TestRandomAssumptionCores(t *testing.T) {
	for _, restrict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 150; trial++ {
			nVars := 3 + rng.Intn(7)
			f := randomFormula(rng, nVars, 2+rng.Intn(15), 3)
			nAssume := 1 + rng.Intn(nVars)
			assumps := make([]cnf.Lit, 0, nAssume)
			used := map[cnf.Var]bool{}
			for len(assumps) < nAssume {
				v := cnf.Var(1 + rng.Intn(nVars))
				if used[v] {
					continue
				}
				used[v] = true
				assumps = append(assumps, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			s := New()
			s.AddFormula(f)
			if restrict {
				restrictRandomly(rand.New(rand.NewSource(int64(trial))), s, nVars)
			}
			st := s.SolveAssume(assumps)
			// Cross-check with brute force: conjoin assumptions as units.
			g := f.Clone()
			for _, a := range assumps {
				g.AddUnit(a)
			}
			want := bruteForceSat(g)
			if (st == Sat) != want {
				t.Fatalf("restrict=%v trial %d: solver=%v brute=%v", restrict, trial, st, want)
			}
			if st == Sat && !g.Eval(s.Model()) {
				t.Fatalf("restrict=%v trial %d: model violates the formula or the assumptions", restrict, trial)
			}
			if st == Unsat {
				checkCore(t, f, assumps, s.Core())
			}
		}
	}
}

// TestIncrementalAssumptionsAgainstBruteForce asks one solver a series of
// queries under random assumptions, so every query after the first runs over
// the learnt clauses and saved phases the earlier ones left. Every answer
// must match brute force, every model must satisfy the formula and the
// assumptions, and every core must be a refuted subset of the assumptions —
// unrestricted, and with branching restricted to a random subset of the
// variables, which leaves the rest to propagation and the fallback.
func TestIncrementalAssumptionsAgainstBruteForce(t *testing.T) {
	for _, restrict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(424242))
		falls := 0
		for trial := 0; trial < 60; trial++ {
			nVars := 8 + rng.Intn(4)
			f := random3SAT(rng, nVars, 3.5)
			s := New()
			s.AddFormula(f)
			if restrict {
				restrictRandomly(rand.New(rand.NewSource(int64(trial))), s, nVars)
			}
			for q := 0; q < 6; q++ {
				var assumps []cnf.Lit
				g := f.Clone()
				for v := 1; v <= nVars; v++ {
					if rng.Intn(4) == 0 {
						a := cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
						assumps = append(assumps, a)
						g.AddUnit(a)
					}
				}
				st := s.SolveAssume(assumps)
				if want := bruteForceSat(g); (st == Sat) != want {
					t.Fatalf("restrict=%v trial %d query %d: solver=%v brute=%v formula:\n%s", restrict, trial, q, st, want, g)
				}
				if st == Sat {
					if !g.Eval(s.Model()) {
						t.Fatalf("restrict=%v trial %d query %d: model violates the formula or the assumptions", restrict, trial, q)
					}
					falls += fallbackDecisions(s)
				}
				if st == Unsat {
					checkCore(t, f, assumps, s.Core())
				}
			}
		}
		if restrict && falls == 0 {
			t.Fatal("no restricted query fell back; the fallback is untested")
		}
		t.Logf("restrict=%v: %d fallback decisions", restrict, falls)
	}
}

// checkCore fails the test unless core is a subset of assumps that f
// refutes on its own.
func checkCore(t *testing.T, f *cnf.Formula, assumps, core []cnf.Lit) {
	t.Helper()
	h := f.Clone()
	for _, a := range core {
		if !slices.Contains(assumps, a) {
			t.Fatalf("core literal %v is not an assumption of %v", a, assumps)
		}
		h.AddUnit(a)
	}
	if bruteForceSat(h) {
		t.Fatalf("reported core %v is satisfiable", core)
	}
}

func TestIncrementalAddClause(t *testing.T) {
	s := New()
	s.EnsureVars(3)
	s.AddClause(1, 2)
	if st := s.Solve(); st != Sat {
		t.Fatalf("phase 1: got %v", st)
	}
	s.AddClause(-1)
	s.AddClause(-2, 3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("phase 2: got %v", st)
	}
	m := s.Model()
	if m.Get(1) != cnf.False || m.Get(2) != cnf.True || m.Get(3) != cnf.True {
		t.Fatalf("bad incremental model: %v", m)
	}
	s.AddClause(-3)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("phase 3: got %v, want UNSAT", st)
	}
}

// Enumerating models by blocking clauses must count exactly the brute-force
// number of models: x1 ∨ x2 over 2 vars has 3, and random formulas are
// model-counted by brute force.
func TestBlockModelEnumeration(t *testing.T) {
	// x1 ∨ x2 over 2 vars has exactly 3 models.
	f := cnf.New(2)
	f.AddClause(1, 2)
	s := New()
	s.AddFormula(f)
	vars := []cnf.Var{1, 2}
	count := 0
	for s.Solve() == Sat {
		count++
		if count > 4 {
			t.Fatal("enumeration did not terminate")
		}
		if !blockModel(s, vars) {
			break
		}
	}
	if count != 3 {
		t.Fatalf("enumerated %d models, want 3", count)
	}
}

// blockModel adds the clause that forbids the last model restricted to vars,
// reporting whether the solver stays consistent. Call it after Sat.
func blockModel(s *Solver, vars []cnf.Var) bool {
	lits := make([]cnf.Lit, len(vars))
	for i, v := range vars {
		lits[i] = cnf.MkLit(v, s.ModelValue(v) != cnf.True)
	}
	return s.AddClause(lits...)
}

// Enumerating with blockModel over all variables of a random formula must
// visit exactly the models brute force counts, each satisfying the formula.
func TestBlockModelEnumerationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 60; trial++ {
		nVars := 2 + rng.Intn(5)
		f := randomFormula(rng, nVars, 1+rng.Intn(12), 3)
		want := bruteForceCount(f)
		s := New()
		s.AddFormula(f)
		vars := make([]cnf.Var, nVars)
		for i := range vars {
			vars[i] = cnf.Var(i + 1)
		}
		count := 0
		for s.Solve() == Sat {
			if m := s.Model(); !f.Eval(m) {
				t.Fatalf("trial %d: enumerated model %v does not satisfy formula:\n%s", trial, m, f)
			}
			count++
			if count > want || !blockModel(s, vars) {
				break
			}
		}
		if count != want {
			t.Fatalf("trial %d: enumerated %d models, brute force says %d; formula:\n%s",
				trial, count, want, f)
		}
	}
}

// pigeonhole builds PHP(n+1, n): n+1 pigeons into n holes — hard UNSAT.
func pigeonhole(n int) *cnf.Formula {
	f := cnf.New(0)
	varAt := make([][]cnf.Var, n+1)
	for p := 0; p <= n; p++ {
		varAt[p] = make([]cnf.Var, n)
		for h := 0; h < n; h++ {
			varAt[p][h] = f.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		c := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = cnf.PosLit(varAt[p][h])
		}
		f.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.AddClause(cnf.NegLit(varAt[p1][h]), cnf.NegLit(varAt[p2][h]))
			}
		}
	}
	return f
}

func TestConflictBudgetReturnsUnknown(t *testing.T) {
	// A hard pigeonhole instance with a tiny budget must return Unknown.
	s := New()
	s.AddFormula(pigeonhole(8))
	s.SetConflictBudget(10)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want Unknown under tiny budget", st)
	}
	if got := s.StopCause(); got != StopConflictBudget {
		t.Fatalf("StopCause = %v, want %v", got, StopConflictBudget)
	}
	if got := s.Stats().LastStop; got != StopConflictBudget {
		t.Fatalf("Stats().LastStop = %v, want %v", got, StopConflictBudget)
	}
}

func TestContextDeadline(t *testing.T) {
	s := New()
	s.AddFormula(pigeonhole(10))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s.SetContext(ctx)
	start := time.Now()
	st := s.Solve()
	if st == Sat {
		t.Fatal("PHP(11,10) cannot be SAT")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
	if st == Unknown {
		if got := s.StopCause(); got != StopDeadline {
			t.Fatalf("StopCause = %v, want %v", got, StopDeadline)
		}
	}
}

func TestContextCancelPrompt(t *testing.T) {
	s := New()
	s.AddFormula(pigeonhole(10))
	ctx, cancel := context.WithCancel(context.Background())
	s.SetContext(ctx)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st := s.Solve()
	elapsed := time.Since(start)
	if st == Sat {
		t.Fatal("PHP(11,10) cannot be SAT")
	}
	if st == Unknown {
		if got := s.StopCause(); got != StopCanceled {
			t.Fatalf("StopCause = %v, want %v", got, StopCanceled)
		}
		// The sampled ctx poll fires every 256 search steps — a few
		// microseconds of work — so the return should trail the cancel by far
		// less than the slack allowed here.
		if elapsed > 20*time.Millisecond+100*time.Millisecond {
			t.Fatalf("cancellation not prompt: Solve ran %v", elapsed)
		}
	}
	// A solved call afterwards must clear the cause.
	s2 := New()
	s2.AddClause(cnf.PosLit(cnf.Var(1)))
	if st := s2.Solve(); st != Sat {
		t.Fatalf("trivial solve: %v", st)
	}
	if got := s2.StopCause(); got != StopNone {
		t.Fatalf("StopCause after Sat = %v, want %v", got, StopNone)
	}
}

func TestRandomPhaseStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		f := randomFormula(rng, 1+rng.Intn(7), 1+rng.Intn(15), 3)
		want := bruteForceSat(f)
		s := New()
		s.SetSeed(int64(trial))
		s.SetRandomPhaseFreq(1.0)
		s.SetRandomVarFreq(0.5)
		s.AddFormula(f)
		st := s.Solve()
		if (st == Sat) != want {
			t.Fatalf("trial %d: randomized solver=%v brute=%v", trial, st, want)
		}
		if st == Sat && !f.Eval(s.Model()) {
			t.Fatalf("trial %d: bad model", trial)
		}
	}
}

// The solver reads its random source directly; every draw must equal the
// one math/rand's Rand makes from the same seed, in the same order, so that
// seeded searches (the sampler's) keep their models. The bounds include
// powers of two (masked), 1<<30+1 (about half of all draws rejected) and
// the largest Int31n bound.
func TestRandomDrawsMatchMathRand(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 64, 1<<30 + 1, 1<<31 - 1}
	for seed := int64(-5); seed < 200; seed++ {
		s := New()
		s.SetSeed(seed)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			n := bounds[i%len(bounds)]
			if got, want := s.randIntn(n), r.Intn(n); got != want {
				t.Fatalf("seed %d draw %d: randIntn(%d) = %d, math/rand %d", seed, i, n, got, want)
			}
			if got, want := s.randFloat64(), r.Float64(); got != want {
				t.Fatalf("seed %d draw %d: randFloat64 = %v, math/rand %v", seed, i, got, want)
			}
		}
	}
}

func TestXorChains(t *testing.T) {
	// Encode x1 ⊕ x2 ⊕ … ⊕ xn = 1 via Tseitin chains; SAT, and flipping the
	// final unit to both polarities keeps exactly one satisfiable.
	f := cnf.New(0)
	n := 12
	vars := f.NewVars(n)
	acc := cnf.PosLit(vars[0])
	for i := 1; i < n; i++ {
		z := cnf.PosLit(f.NewVar())
		f.AddXor(z, acc, cnf.PosLit(vars[i]))
		acc = z
	}
	f1 := f.Clone()
	f1.AddUnit(acc)
	st, m := solveFormula(t, f1)
	if st != Sat {
		t.Fatalf("xor=1: got %v", st)
	}
	parity := false
	for _, v := range vars {
		if m.Get(v) == cnf.True {
			parity = !parity
		}
	}
	if !parity {
		t.Fatal("model has even parity, want odd")
	}
	f2 := f.Clone()
	f2.AddUnit(acc)
	f2.AddUnit(acc.Neg())
	if st, _ := solveFormula(t, f2); st != Unsat {
		t.Fatalf("xor both polarities: got %v, want UNSAT", st)
	}
}

func TestStatsProgress(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	f.AddClause(-1, -2)
	s := New()
	s.AddFormula(f)
	if st := s.Solve(); st != Sat {
		t.Fatal("want SAT")
	}
	st := s.Stats()
	if st.Propagations == 0 && st.Decisions == 0 {
		t.Fatal("no work recorded in stats")
	}
}
