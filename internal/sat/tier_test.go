package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// These tests are the reduceDB audit of the tiered learnt database against
// its three protected classes — locked (reason) clauses, binary clauses,
// and clause groups. reduceDB must never free a clause some live structure
// still points at, and must never demote/delete a live group's clauses
// (activation-guarded clauses live outside the tiers entirely).

// TestTieredReduceProtectsCoreAndBinary pins the tier contract: core
// clauses survive reduceDB regardless of activity, stale mid clauses demote
// to local (one grace round) and die on the next sweep, and binary learnt
// clauses are never deleted even from the local tier.
func TestTieredReduceProtectsCoreAndBinary(t *testing.T) {
	s := New()
	s.EnsureVars(64)

	core := s.addLearnt([]lit{mkLit(1, false), mkLit(2, false), mkLit(3, false)}, 2)
	s.claSetActivity(core, 0) // lowest activity: deletion bait if tiers leak
	bin := s.addLearnt([]lit{mkLit(4, false), mkLit(5, false)}, 10)
	s.claSetActivity(bin, 0)
	mid := s.addLearnt([]lit{mkLit(6, false), mkLit(7, false), mkLit(8, false)}, 5)
	s.claSetActivity(mid, 0)
	var locals []cref
	for i := 0; i < 10; i++ {
		v := 10 + 2*i
		c := s.addLearnt([]lit{mkLit(v, false), mkLit(v+1, true), mkLit(63, false)}, 10)
		s.claSetActivity(c, float32(i+1))
		locals = append(locals, c)
	}

	if got := s.Stats(); got.TierCore != 1 || got.TierMid != 1 || got.TierLocal != 11 {
		t.Fatalf("tier sizes after install: %+v", got)
	}

	s.reduceDB()
	st := s.Stats()
	if st.TierCore != 1 {
		t.Fatalf("core tier size %d after reduce, want 1 (core is never deleted)", st.TierCore)
	}
	// The stale mid clause (used bit clear, not a reason) is demoted to
	// local with a grace round: present in local, not deleted.
	if st.TierMid != 0 || st.Demotions != 1 {
		t.Fatalf("mid clause not demoted: %+v", st)
	}
	alive := func(c cref) bool {
		for _, tier := range [][]cref{s.learntsCore, s.learntsMid, s.learntsLocal} {
			for _, x := range tier {
				if x == c {
					return true
				}
			}
		}
		return false
	}
	if !alive(mid) {
		t.Fatal("demoted mid clause deleted without its grace round")
	}
	if !alive(bin) {
		t.Fatal("binary learnt clause deleted by local-tier reduction")
	}
	if !alive(core) {
		t.Fatal("core clause deleted")
	}
	// Low-activity local clauses died; the top half survived.
	dead := 0
	for _, c := range locals {
		if !alive(c) {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("local tier not reduced at all")
	}

	// Second sweep with no interim use: the demoted clause's grace round is
	// over and it competes in local by activity (activity 1 bump from
	// addLearnt; it survives or dies by the same rule as any local clause —
	// the point is that it is no longer mid-protected).
	s.reduceDB()
	if got := s.Stats().TierMid; got != 0 {
		t.Fatalf("stale clause back in mid tier: %d", got)
	}
}

// TestTieredReducePromotesImprovedLBD pins promotion: a local clause whose
// recorded LBD improved (bumpClauseUse keeps the minimum observed) moves to
// the matching tier at the next reduceDB instead of staying deletable.
func TestTieredReducePromotesImprovedLBD(t *testing.T) {
	s := New()
	s.EnsureVars(32)
	c := s.addLearnt([]lit{mkLit(1, false), mkLit(2, false), mkLit(3, false)}, 9)
	s.claSetActivity(c, 0)
	if s.claTier(c) != tierLocal {
		t.Fatalf("tier = %d, want local", s.claTier(c))
	}
	// Simulate an improved glue observation.
	s.arena[c+2] = s.arena[c+2]&^metaLBDMask | 2
	s.reduceDB()
	if s.claTier(c) != tierCore {
		t.Fatalf("tier = %d after reduce, want core (LBD improved to 2)", s.claTier(c))
	}
	if s.Stats().Promotions == 0 {
		t.Fatal("promotion not counted")
	}
}

// TestReduceLeavesGroupClausesAlone pins the group/tier separation: a
// clause group's clauses survive arbitrarily many reduceDB sweeps and
// arena compactions (they live outside the tiers), and the group still
// enforces its semantics afterwards.
func TestReduceLeavesGroupClausesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := New()
	f := randomFormula(rng, 12, 30, 3)
	s.AddFormula(f)
	// Group forcing 10 ↔ 11 — detectable semantics.
	g := s.AddClauseGroup([]cnf.Clause{
		{cnf.NegLit(10), cnf.PosLit(11)},
		{cnf.PosLit(10), cnf.NegLit(11)},
	})
	for round := 0; round < 5; round++ {
		s.Solve()
		s.reduceDB()
		s.garbageCollect()
		// The group must still force 10 ↔ 11.
		if st := s.SolveAssume([]cnf.Lit{10, -11}); st == Sat {
			t.Fatalf("round %d: reduce/GC broke a live group (10∧¬11 satisfiable)", round)
		}
	}
	s.ReleaseGroup(g)
	want := New()
	want.AddFormula(f)
	wantSt := want.SolveAssume([]cnf.Lit{10, -11})
	if got := s.SolveAssume([]cnf.Lit{10, -11}); got != wantSt {
		t.Fatalf("after release: got %v, base-only %v", got, wantSt)
	}
}

// TestLearntsCarryActivationLiteral pins the invariant ReleaseGroup's
// soundness rests on: every clause learnt from a conflict involving a live
// group's clauses contains the group's activation literal positively, and
// recursive conflict-clause minimization never removes it — the activation
// variable is assigned by assumption, so it has no reason clause to resolve
// it away with.
func TestLearntsCarryActivationLiteral(t *testing.T) {
	s := New()
	// Base clauses give the search room; the group alone is the only
	// source of conflicts.
	s.AddClause(1, 2, 3, 4, 5, 6)
	var cls []cnf.Clause
	add := func(ls ...cnf.Lit) { cls = append(cls, cnf.Clause(ls)) }
	add(1, 2, 7)
	add(1, -2, 7)
	add(-1, 3, -7)
	add(-1, -3, -7)
	add(1, 2, -7)
	add(1, -2, -7)
	add(-1, 3, 7)
	add(-1, -3, 7)
	s.AddClauseGroup(cls)
	selVar := s.groups[0].selVar
	selPos := mkLit(selVar, false)
	learnts := 0
	s.testOnLearnt = func(learnt []lit, btLevel int) {
		learnts++
		for _, p := range learnt {
			if p == selPos {
				return
			}
		}
		t.Fatalf("learnt clause %v lacks the activation literal %v", learnt, selPos)
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("tangle should be Unsat, got %v", st)
	}
	if learnts == 0 {
		t.Fatal("no learnt clauses observed; test is vacuous")
	}
}

// TestTieredReduceUnderAssumptionsKeepsReasons drives real searches under
// assumptions with a tiny local tier so reduceDB fires mid-search, then
// cross-checks every answer against a fresh solver — the end-to-end version
// of the locked-clause audit.
func TestTieredReduceUnderAssumptionsKeepsReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		nVars := 8 + rng.Intn(8)
		f := randomFormula(rng, nVars, 3*nVars+rng.Intn(20), 3)
		s := New()
		s.AddFormula(f)
		s.maxLearnts = 4 // force reduceDB constantly
		for q := 0; q < 6; q++ {
			var assumps []cnf.Lit
			for v := 1; v <= nVars; v++ {
				if rng.Intn(3) == 0 {
					assumps = append(assumps, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
				}
			}
			got := s.SolveAssume(assumps)
			fresh := New()
			fresh.AddFormula(f)
			want := fresh.SolveAssume(assumps)
			if got != want {
				t.Fatalf("trial %d query %d: reduced solver %v, fresh %v", trial, q, got, want)
			}
			if got == Sat && !f.Eval(s.Model()) {
				t.Fatalf("trial %d query %d: model invalid under constant reduction", trial, q)
			}
		}
	}
}
