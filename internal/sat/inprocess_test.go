package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// forceRound drives one inprocessing round outside the conflict schedule:
// back to level 0, propagation to fixpoint, then the round itself. Fails the
// test if the solver is consistent but the round did not run.
func forceRound(t *testing.T, s *Solver) {
	t.Helper()
	if !s.ok {
		return
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.ok = false
		return
	}
	before := s.inprocRounds
	s.inprocess()
	if s.ok && s.inprocRounds != before+1 {
		t.Fatal("inprocess round did not run")
	}
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

// Solve → inprocess → solve must preserve the answer, and models after a
// round — which may reconstruct variables the round eliminated — must still
// satisfy the original formula.
func TestInprocessPreservesAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	for trial := 0; trial < 200; trial++ {
		nVars := 3 + rng.Intn(6)
		f := randomFormula(rng, nVars, 2+rng.Intn(18), 3)
		want := bruteForceSat(f)
		s := New()
		s.AddFormula(f)
		forceRound(t, s)
		st := s.Solve()
		if (st == Sat) != want {
			t.Fatalf("trial %d: after round solver=%v brute=%v formula:\n%s", trial, st, want, f)
		}
		if st == Sat && !f.Eval(s.Model()) {
			t.Fatalf("trial %d: reconstructed model does not satisfy formula", trial)
		}
		// A second round over the post-search database, then re-solve.
		forceRound(t, s)
		st = s.Solve()
		if (st == Sat) != want {
			t.Fatalf("trial %d: second round flipped the answer to %v", trial, st)
		}
		if st == Sat && !f.Eval(s.Model()) {
			t.Fatalf("trial %d: model invalid after second round", trial)
		}
	}
}

// TestInprocessScheduleAgainstBruteForce runs the conflict-interval
// schedule at its tightest (the first round after one conflict) through
// incremental solves under random assumptions, so scheduled rounds fire
// between the queries of one solver, over learnt clauses and eliminated
// variables left by earlier queries. Every answer must match brute force,
// every model must satisfy the formula and the assumptions, and every core
// must be a refuted subset of the assumptions — unrestricted, and with
// branching restricted to a random subset of the variables, which leaves
// the rest to elimination, vivification and the fallback.
func TestInprocessScheduleAgainstBruteForce(t *testing.T) {
	for _, restrict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(424242))
		rounds, elims, vivs, falls := int64(0), int64(0), int64(0), 0
		for trial := 0; trial < 60; trial++ {
			nVars := 8 + rng.Intn(4)
			f := random3SAT(rng, nVars, 3.5)
			s := New()
			s.inprocessConflicts = 1
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
			rounds += s.inprocRounds
			elims += s.elimVarCnt
			vivs += s.vivified
		}
		if rounds == 0 || elims == 0 || vivs == 0 || restrict && falls == 0 {
			t.Fatalf("restrict=%v: test is vacuous: %d inprocessing rounds, %d variables eliminated, %d clauses vivified, %d fallback decisions",
				restrict, rounds, elims, vivs, falls)
		}
		t.Logf("restrict=%v: %d inprocessing rounds, %d variables eliminated, %d clauses vivified, %d fallback decisions",
			restrict, rounds, elims, vivs, falls)
	}
}

// Model enumeration with an inprocessing round forced between every step
// must count exactly the brute-force number of models: blocking clauses
// mention eliminated variables (exercising restore), and every model is
// completed over the eliminated variables (exercising extendModel).
func TestInprocessModelEnumeration(t *testing.T) {
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
		for {
			forceRound(t, s)
			if s.Solve() != Sat {
				break
			}
			if m := s.Model(); !f.Eval(m) {
				t.Fatalf("trial %d: enumerated model %v does not satisfy formula:\n%s", trial, m, f)
			}
			count++
			if count > want {
				break
			}
			if !s.BlockModel(vars) {
				break
			}
		}
		if count != want {
			t.Fatalf("trial %d: enumerated %d models, brute force says %d; formula:\n%s",
				trial, count, want, f)
		}
	}
}

// Assumption solving after an inprocessing round: answers match brute force,
// models honor the assumptions, and reported cores are genuinely
// unsatisfiable with the original formula.
func TestInprocessCoresStayValid(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 120; trial++ {
		nVars := 3 + rng.Intn(6)
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
		forceRound(t, s) // may eliminate assumption variables; SolveAssume restores them
		st := s.SolveAssume(assumps)
		g := f.Clone()
		for _, a := range assumps {
			g.AddUnit(a)
		}
		want := bruteForceSat(g)
		if (st == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, st, want)
		}
		if st == Sat {
			m := s.Model()
			if !f.Eval(m) {
				t.Fatalf("trial %d: model does not satisfy formula", trial)
			}
			for _, a := range assumps {
				if got := m.Get(a.Var()); got != cnf.BoolValue(a.IsPos()) {
					t.Fatalf("trial %d: assumption %v violated in model (got %v)", trial, a, got)
				}
			}
		} else if st == Unsat {
			h := f.Clone()
			for _, a := range s.Core() {
				h.AddUnit(a)
			}
			if bruteForceSat(h) {
				t.Fatalf("trial %d: reported core is satisfiable", trial)
			}
		}
	}
}

// A clause added after a round transparently restores the eliminated
// variables it mentions, and the solver keeps answering correctly.
func TestInprocessIncrementalRestore(t *testing.T) {
	s := New()
	s.EnsureVars(3)
	s.AddClause(3, 1)
	s.AddClause(-3, 2)
	forceRound(t, s)
	if s.elimVarCnt == 0 {
		t.Fatal("expected the round to eliminate at least one variable")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("post-round solve: %v", st)
	}
	m := s.Model()
	check := func(m cnf.Assignment) {
		t.Helper()
		or := func(a, b cnf.Value) bool { return a == cnf.True || b == cnf.True }
		if !or(m.Get(3), m.Get(1)) || !or(m.Get(2), cnf.BoolValue(m.Get(3) != cnf.True)) {
			t.Fatalf("reconstructed model violates original clauses: %v %v %v",
				m.Get(1), m.Get(2), m.Get(3))
		}
	}
	check(m)
	// New clauses over the eliminated variables force restores.
	s.AddClause(-1, -2)
	s.AddClause(cnf.NegLit(3))
	if st := s.Solve(); st != Sat {
		t.Fatalf("post-restore solve: %v", st)
	}
	m = s.Model()
	check(m)
	if m.Get(3) != cnf.False {
		t.Fatalf("unit ¬3 ignored after restore: %v", m.Get(3))
	}
	if m.Get(1) == cnf.True && m.Get(2) == cnf.True {
		t.Fatal("clause (¬1 ∨ ¬2) ignored after restore")
	}
}

// Regression (latent group-clause hazard): inprocessing must never eliminate
// a group activation variable, never tombstone a live group clause, and a
// released group must still reclaim cleanly after rounds ran.
func TestInprocessNeverTouchesActivationVars(t *testing.T) {
	s := New()
	g := s.AddClauseGroup(groupFromLits(
		[]cnf.Lit{1, 2}, []cnf.Lit{-1, 3}, []cnf.Lit{-2, -3}))
	s.AddClause(4, 5)
	forceRound(t, s)
	sel := s.groups[g].selVar
	if s.eliminated[sel] {
		t.Fatal("activation variable eliminated by BVE")
	}
	for _, c := range s.groups[g].crefs {
		if s.claSize(c) == 0 {
			t.Fatal("live group clause tombstoned by inprocessing")
		}
		found := false
		for _, u := range s.claLits(c) {
			if lit(u).varIdx() == sel {
				found = true
			}
		}
		if !found {
			t.Fatal("activation literal strengthened out of a group clause")
		}
	}
	// Variables of live group clauses are frozen for the round.
	for v := 1; v <= 3; v++ {
		if s.eliminated[v] {
			t.Fatalf("variable %d of a live group eliminated mid-flight", v)
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve with group after round: %v", st)
	}
	s.ReleaseGroup(g)
	forceRound(t, s)
	if st := s.SolveAssume([]cnf.Lit{1, 2, 3}); st != Sat {
		t.Fatalf("released group still constrains the solver: %v", st)
	}
}

// Regression: self-subsumption must never strengthen an activation literal
// out of a learnt clause — ReleaseGroup relies on it staying there. No real
// clause ever contains a negated activation literal, so the hazardous
// resolution partner is installed white-box to prove the guard holds even
// against one.
func TestSelfSubsumptionKeepsActivationLiteral(t *testing.T) {
	s := New()
	s.EnsureVars(4)
	g := s.AddClauseGroup(groupFromLits([]cnf.Lit{1, 2, 3}))
	sel := s.groups[g].selVar
	// A learnt that resolved the group clause carries sel positively.
	d := s.addLearnt([]lit{mkLit(1, false), mkLit(2, false), mkLit(sel, false)}, 2)
	// The hazardous subsumer (1 ∨ ¬sel), plus padding on ¬sel so the
	// occurrence heuristic walks occ(1) — the list containing d.
	c, _ := s.addClauseCref([]cnf.Lit{1, cnf.NegLit(cnf.Var(sel))})
	s.clauses = append(s.clauses, c)
	c2, _ := s.addClauseCref([]cnf.Lit{4, cnf.NegLit(cnf.Var(sel))})
	s.clauses = append(s.clauses, c2)
	s.buildOcc()
	s.freezeGroupVars()
	s.subsumeWith(c)
	if got := s.claSize(d); got != 3 {
		t.Fatalf("learnt with activation literal shrunk to %d lits", got)
	}
	hasSel := false
	for _, u := range s.claLits(d) {
		if lit(u).varIdx() == sel {
			hasSel = true
		}
	}
	if !hasSel {
		t.Fatal("activation literal strengthened out of learnt clause")
	}

	// Sanity check that the machinery does strengthen an ordinary variable in
	// the same configuration (the guard above is selective, not a no-op pass).
	s2 := New()
	s2.EnsureVars(9)
	e, _ := s2.addClauseCref([]cnf.Lit{1, 2, 9})
	s2.clauses = append(s2.clauses, e)
	f, _ := s2.addClauseCref([]cnf.Lit{1, -9})
	s2.clauses = append(s2.clauses, f)
	f2, _ := s2.addClauseCref([]cnf.Lit{4, -9})
	s2.clauses = append(s2.clauses, f2)
	s2.buildOcc()
	s2.freezeGroupVars()
	s2.subsumeWith(f)
	if got := s2.claSize(e); got != 2 {
		t.Fatalf("control clause not strengthened (size %d); the guard test proves nothing", got)
	}
}

// hardRandom3SAT returns a random 3-SAT instance near the phase transition
// (distinct variables per clause): hard enough to accumulate learnts in
// every tier, small enough to finish fast.
func hardRandom3SAT(seed int64, nVars int) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := cnf.New(nVars)
	nClauses := int(4.1 * float64(nVars))
	for i := 0; i < nClauses; i++ {
		c := make([]cnf.Lit, 0, 3)
		for len(c) < 3 {
			v := cnf.Var(1 + rng.Intn(nVars))
			dup := false
			for _, l := range c {
				if l.Var() == v {
					dup = true
				}
			}
			if !dup {
				c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
			}
		}
		f.AddClause(c...)
	}
	return f
}

// TestInprocessZeroAlloc pins the steady-state allocation bar of an
// inprocessing round: once the occurrence lists, candidate list, and
// per-pass scratch have warmed up, a round over an unchanged database must
// not touch the heap.
func TestInprocessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the non-race pass")
	}
	f := hardRandom3SAT(5, 150)
	s := New()
	s.AddFormula(f)
	s.SetConflictBudget(2000)
	s.Solve() // accumulate learnts so the round has all tiers to walk
	s.SetConflictBudget(-1)
	run := func() {
		s.cancelUntil(0)
		if s.propagate() != crefUndef {
			t.Fatal("level-0 conflict in warm formula")
		}
		s.inprocess()
		if !s.ok {
			t.Fatal("inprocessing derived inconsistency on a satisfiable instance")
		}
	}
	// Warm-up rounds: vivification and BVE reach their fixpoint and every
	// scratch buffer reaches steady-state capacity.
	for i := 0; i < 4; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(5, run); avg != 0 {
		t.Fatalf("steady-state inprocessing round allocates %.1f objects, want 0", avg)
	}
}
