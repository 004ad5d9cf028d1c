package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// Property tests for the tiered learnt database and conflict-clause
// minimization: reductions must preserve answers, and every minimized
// learnt clause must still be asserting and implied by the formula.

// TestTieredReducePreservesAnswers is the randomized solve→reduce→solve
// property: interleaving solves with forced tier reductions and compactions
// must agree with a fresh solver on the same clause set, SAT models must
// satisfy the formula, and UNSAT answers must match brute force.
func TestTieredReducePreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + rng.Intn(8)
		f := randomFormula(rng, nVars, 3+rng.Intn(30), 3)
		s := New()
		s.AddFormula(f)
		st1 := s.Solve()
		want := bruteForceSat(f)
		if (st1 == Sat) != want {
			t.Fatalf("trial %d: first solve %v, brute %v", trial, st1, want)
		}
		for round := 0; round < 3; round++ {
			s.reduceDB()
			s.garbageCollect()
			st2 := s.Solve()
			if st2 != st1 {
				t.Fatalf("trial %d round %d: status changed across tiered reduction: %v → %v",
					trial, round, st1, st2)
			}
			if st2 == Sat && !f.Eval(s.Model()) {
				t.Fatalf("trial %d round %d: post-reduction model invalid", trial, round)
			}
			// Grow the instance so later rounds reduce a dirtier database.
			extra := make([]cnf.Lit, 0, 3)
			for j := 0; j < 1+rng.Intn(3); j++ {
				v := cnf.Var(1 + rng.Intn(nVars))
				extra = append(extra, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			f.AddClause(extra...)
			s.AddClause(extra...)
			st1 = s.Solve()
			if (st1 == Sat) != bruteForceSat(f) {
				t.Fatalf("trial %d round %d: incremental answer diverged from brute force", trial, round)
			}
		}
	}
}

// TestMinimizedLearntsAssertingAndImplied pins minimization correctness:
// each learnt clause observed during search (pre-backtrack) must be
// falsified with exactly its first literal at the conflict level and every
// other literal strictly below it (the asserting shape), and must be
// implied by the original formula (checked by assuming its negation on a
// reference solver and expecting Unsat).
func TestMinimizedLearntsAssertingAndImplied(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	checked := 0
	for trial := 0; trial < 25 && checked < 400; trial++ {
		nVars := 20 + rng.Intn(20)
		f := random3SAT(rng, nVars, 4.2)
		ref := New()
		ref.AddFormula(f)
		s := New()
		s.AddFormula(f)
		s.testOnLearnt = func(learnt []lit, btLevel int) {
			if checked >= 400 {
				return
			}
			checked++
			lvl := s.decisionLevel()
			if got := int(s.level[learnt[0].varIdx()]); got != lvl {
				t.Fatalf("asserting literal at level %d, conflict level %d", got, lvl)
			}
			for i, p := range learnt {
				if s.litValue(p) != lFalse {
					t.Fatalf("learnt literal %d not falsified at the conflict", i)
				}
				if i > 0 && int(s.level[p.varIdx()]) >= lvl {
					t.Fatalf("tail literal %d at level %d ≥ conflict level %d",
						i, s.level[p.varIdx()], lvl)
				}
			}
			if btLevel != 0 && int(s.level[learnt[1].varIdx()]) != btLevel {
				t.Fatalf("backtrack level %d but learnt[1] at %d",
					btLevel, s.level[learnt[1].varIdx()])
			}
			// Implied: f ∧ ¬C must be unsatisfiable. The reference solver
			// holds only the original clauses, so this also re-derives
			// that learning is sound end to end.
			neg := make([]cnf.Lit, len(learnt))
			for i, p := range learnt {
				neg[i] = fromLit(p).Neg()
			}
			if st := ref.SolveAssume(neg); st != Unsat {
				t.Fatalf("learnt clause not implied by the formula (¬C gave %v)", st)
			}
		}
		s.Solve()
	}
	if checked == 0 {
		t.Fatal("no learnt clauses observed; test is vacuous")
	}
}

// TestRecursiveMinimizationIsSubset pins that recursive minimization only
// ever removes literals relative to the unminimized clause — same
// asserting literal, a subset of the tail — by solving the same instances
// with a zero budget (every literal kept, the plain first-UIP clause) and
// with the default budget, and comparing answers with brute force (models
// must satisfy the formula). The two diverge in search trajectory after the
// first differing clause, so only the answers are comparable, which is
// exactly the soundness claim.
func TestRecursiveMinimizationIsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 80; trial++ {
		nVars := 6 + rng.Intn(8)
		f := randomFormula(rng, nVars, 3*nVars, 3)
		want := bruteForceSat(f)
		for _, budget := range []int{0, defaultMinimizeBudget} {
			s := New()
			s.minimizeBudget = budget
			s.AddFormula(f)
			st := s.Solve()
			if (st == Sat) != want {
				t.Fatalf("trial %d budget %d: got %v, brute force %v", trial, budget, st, want)
			}
			if st == Sat && !f.Eval(s.Model()) {
				t.Fatalf("trial %d budget %d: invalid model", trial, budget)
			}
		}
	}
}

// TestMinimizeBudgetExhaustionSound pins that a tiny recursive-minimization
// budget (constant poisoning and early cuts) never affects soundness, only
// clause size.
func TestMinimizeBudgetExhaustionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 60; trial++ {
		nVars := 6 + rng.Intn(8)
		f := randomFormula(rng, nVars, 3*nVars, 3)
		s := New()
		s.minimizeBudget = 1
		s.AddFormula(f)
		st := s.Solve()
		if (st == Sat) != bruteForceSat(f) {
			t.Fatalf("trial %d: wrong answer under minimization budget 1", trial)
		}
	}
}

// TestDuplicateAssumptionsDeepLevels pins a crash regression: every
// already-satisfied assumption (duplicates included) creates a dummy
// decision level, so decision levels can exceed the variable count. The
// level-indexed LBD stamp array must cover the deepest level created, not
// just numVars — before the fix this SolveAssume panicked with an index
// out of range inside computeLBD.
func TestDuplicateAssumptionsDeepLevels(t *testing.T) {
	s := New()
	s.EnsureVars(3)
	// UNSAT over vars 2,3: the first real decision (at a level far beyond
	// numVars thanks to the dummy assumption levels) propagates into a
	// conflict whose analysis computes an LBD.
	s.AddClause(2, 3)
	s.AddClause(2, -3)
	s.AddClause(-2, 3)
	s.AddClause(-2, -3)
	a := cnf.PosLit(1)
	assumps := []cnf.Lit{a, a, a, a, a, a, a, a}
	if st := s.SolveAssume(assumps); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}
