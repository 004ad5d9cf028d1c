package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
)

func TestSimplifyRemovesSatisfiedClauses(t *testing.T) {
	s := New()
	s.EnsureVars(4)
	s.AddClause(1)
	s.AddClause(1, 2)  // satisfied by unit
	s.AddClause(-1, 3) // strengthens to unit 3
	s.AddClause(2, 4)
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v", st)
	}
	m := s.Model()
	if m.Get(1) != cnf.True || m.Get(3) != cnf.True {
		t.Fatalf("propagation through simplification broken: %v", m)
	}
	// Solver stays correct for further incremental use.
	s.AddClause(-3, -4)
	if st := s.Solve(); st != Sat {
		t.Fatalf("after simplify: %v", st)
	}
	if s.Model().Get(4) != cnf.False {
		t.Fatal("unit chain after simplification broken")
	}
}

func TestSimplifyDerivesConflict(t *testing.T) {
	s := New()
	s.EnsureVars(2)
	s.AddClause(1, 2)
	s.AddClause(1, -2)
	s.AddClause(-1, 2)
	s.AddClause(-1, -2)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
	// Subsequent calls remain consistent.
	if st := s.Solve(); st != Unsat {
		t.Fatal("UNSAT state not sticky")
	}
}

func TestSimplifyRandomIncremental(t *testing.T) {
	// Interleave solving and unit additions; simplification must never
	// change satisfiability vs a fresh solver on the same clause set.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		f := cnf.New(n)
		s := New()
		s.EnsureVars(n)
		consistent := true
		for phase := 0; phase < 4 && consistent; phase++ {
			for i := 0; i < 1+rng.Intn(4); i++ {
				k := 1 + rng.Intn(3)
				c := make([]cnf.Lit, 0, k)
				for j := 0; j < k; j++ {
					c = append(c, cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
				}
				f.AddClause(c...)
				s.AddClause(c...)
			}
			got := s.Solve()
			fresh := New()
			fresh.AddFormula(f)
			want := fresh.Solve()
			if got != want {
				t.Fatalf("trial %d phase %d: incremental=%v fresh=%v", trial, phase, got, want)
			}
			if got == Unsat {
				consistent = false
			}
		}
	}
}

// checkSimplifyInvariants asserts what simplifyDB's problem-clause skip
// rests on: no problem clause contains a group activation variable, every
// learnt that contains one has it positive, and no problem clause holds a
// literal fixed at level 0 before the clean mark simpClean.
func checkSimplifyInvariants(t *testing.T, s *Solver, what string) {
	t.Helper()
	if !s.ok {
		return // an inconsistent solver answers Unsat without reading a clause
	}
	isSel := func(p lit) bool { return p.varIdx() < len(s.isSel) && s.isSel[p.varIdx()] }
	fixed := make(map[int]bool, s.simpClean)
	for _, p := range s.trail[:s.simpClean] {
		fixed[p.varIdx()] = true
	}
	for _, c := range s.clauses {
		for _, u := range s.claLits(c) {
			p := lit(u)
			if isSel(p) {
				t.Fatalf("%s: problem clause %v holds activation variable %d", what, s.claLits(c), p.varIdx())
			}
			if fixed[p.varIdx()] {
				t.Fatalf("%s: problem clause %v holds variable %d, fixed at level 0 before the clean mark %d",
					what, s.claLits(c), p.varIdx(), s.simpClean)
			}
		}
	}
	for _, tier := range [][]cref{s.learntsCore, s.learntsMid, s.learntsLocal} {
		for _, c := range tier {
			for _, u := range s.claLits(c) {
				if p := lit(u); isSel(p) && p.sign() {
					t.Fatalf("%s: learnt %v holds activation variable %d negated", what, s.claLits(c), p.varIdx())
				}
			}
		}
	}
}

// Seeded random incremental sessions: plain clauses (units included),
// clause groups, releases, branching restrictions and solves under
// assumptions, with simplifyDB's invariants checked after every call.
func TestIncrementalSessionInvariants(t *testing.T) {
	releasedBeforeMark := 0 // sessions whose clean mark passed a released group
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := 6 + rng.Intn(8)
		s := New()
		s.EnsureVars(nv)
		clause := func(minLen int) []cnf.Lit {
			c := make([]cnf.Lit, minLen+rng.Intn(3))
			for i := range c {
				c[i] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			return c
		}
		var live []GroupID
		for step := 0; step < 60 && s.ok; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op == 0:
				what = "AddClause unit"
				s.AddClause(clause(1)[:1]...)
			case op < 3:
				what = "AddClause"
				s.AddClause(clause(2)...)
			case op < 5:
				what = "AddClauseGroup"
				cls := make([]cnf.Clause, 1+rng.Intn(4))
				for i := range cls {
					cls[i] = clause(1)
				}
				live = append(live, s.AddClauseGroup(cls))
			case op < 7 && len(live) > 0:
				what = "ReleaseGroup"
				i := rng.Intn(len(live))
				s.ReleaseGroup(live[i])
				live = append(live[:i], live[i+1:]...)
			case op == 7:
				what = "RestrictBranching"
				restrictRandomly(rng, s, nv)
			default:
				what = "SolveAssume"
				s.SolveAssume(clause(0))
			}
			checkSimplifyInvariants(t, s, fmt.Sprintf("seed %d step %d after %s", seed, step, what))
		}
		if len(s.clauses) > 0 && slices.ContainsFunc(s.trail[:s.simpClean], func(p lit) bool {
			return p.varIdx() < len(s.isSel) && s.isSel[p.varIdx()]
		}) {
			releasedBeforeMark++
		}
	}
	if releasedBeforeMark < 100 {
		t.Fatalf("only %d of 300 sessions moved the clean mark past a released group; the test is too weak", releasedBeforeMark)
	}
}

// A scan that derives a unit must leave the clean mark where it was: the
// clauses it passed before the unit may hold the unit's literal. Complete
// propagation leaves no clause that the scan could shorten to a unit, so
// this hands simplifyDB a level-0 trail whose two literals were never
// propagated.
func TestSimplifyCleanMarkStopsAtDerivedUnit(t *testing.T) {
	s := New()
	s.EnsureVars(6)
	s.AddClause(3, 4, 5)   // scanned first; holds the unit-to-be 3
	s.AddClause(-1, -2, 3) // shortened to the unit 3 once 1 and 2 are fixed
	s.AddClause(4, 5, 6)
	s.uncheckedEnqueue(mkLit(1, false), reasonUndef)
	s.uncheckedEnqueue(mkLit(2, false), reasonUndef)
	s.qhead = len(s.trail)
	s.simplifyDB()
	if s.varValue(3) != lTrue {
		t.Fatal("the scan did not derive the unit 3")
	}
	checkSimplifyInvariants(t, s, "after the unit-deriving scan")
	// A release alone grows the trail next; the scan it triggers must still
	// visit the problem clauses and drop (3 ∨ 4 ∨ 5).
	s.ReleaseGroup(s.AddClauseGroup([]cnf.Clause{{4, 6}}))
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve: %v", st)
	}
	checkSimplifyInvariants(t, s, "after the release")
	if len(s.clauses) != 1 {
		t.Fatalf("%d problem clauses left, want 1: (4 ∨ 5 ∨ 6)", len(s.clauses))
	}
}
