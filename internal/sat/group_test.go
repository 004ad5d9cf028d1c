package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

func groupFromLits(lits ...[]cnf.Lit) []cnf.Clause {
	out := make([]cnf.Clause, len(lits))
	for i, c := range lits {
		out[i] = cnf.Clause(c)
	}
	return out
}

// While active, a clause group must be semantically indistinguishable from
// plain clauses.
func TestClauseGroupActsLikeClauses(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	g := s.AddClauseGroup(groupFromLits([]cnf.Lit{-1}, []cnf.Lit{-2, 3}))
	if st := s.Solve(); st != Sat {
		t.Fatalf("solve: %v", st)
	}
	m := s.Model()
	if m.Get(1) != cnf.False || m.Get(2) != cnf.True || m.Get(3) != cnf.True {
		t.Fatalf("model ignores group clauses: %v %v %v", m.Get(1), m.Get(2), m.Get(3))
	}
	// Group + extra clause makes it UNSAT…
	g2 := s.AddClauseGroup(groupFromLits([]cnf.Lit{-3}))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("want Unsat with conflicting groups, got %v", st)
	}
	// …and releasing the conflicting group restores satisfiability.
	s.ReleaseGroup(g2)
	if st := s.Solve(); st != Sat {
		t.Fatalf("want Sat after release, got %v", st)
	}
	s.ReleaseGroup(g)
	if st := s.SolveAssume([]cnf.Lit{1, 2}); st != Sat {
		t.Fatalf("want Sat with both groups gone, got %v", st)
	}
}

// Releasing a group must free its words into the wasted account.
func TestReleaseGroupFreesArenaWords(t *testing.T) {
	s := New()
	s.AddClause(1, 2, 3)
	cls := groupFromLits([]cnf.Lit{1, -2, 3}, []cnf.Lit{-1, 2, 3}, []cnf.Lit{-3, 1, 2})
	g := s.AddClauseGroup(cls)
	before := s.Stats()
	if before.LiveGroups != 1 {
		t.Fatalf("live groups: %d, want 1", before.LiveGroups)
	}
	s.ReleaseGroup(g)
	after := s.Stats()
	if after.LiveGroups != 0 || after.GroupsFreed != 1 {
		t.Fatalf("after release: live=%d freed=%d", after.LiveGroups, after.GroupsFreed)
	}
	// Either the words are accounted as wasted or a compaction already ran.
	if after.ArenaWasted == 0 && after.ArenaGCs == before.ArenaGCs {
		t.Fatalf("release freed nothing: %+v", after)
	}
	// Double release is a no-op.
	s.ReleaseGroup(g)
	if got := s.Stats().GroupsFreed; got != 1 {
		t.Fatalf("double release counted: %d", got)
	}
}

// Learnt clauses derived while a group was active must not constrain the
// solver after the group is released — the classic unsoundness of physical
// clause deletion under incremental solving. The pigeonhole-style core here
// forces real conflict analysis through the group clauses before release.
func TestReleaseGroupKeepsLearntsSound(t *testing.T) {
	s := New()
	// Base: x1..x6 free; a few long clauses so learnts have material.
	s.AddClause(1, 2, 3, 4, 5, 6)
	// Group: an unsatisfiable-with-assumptions XOR-ish tangle over x1..x4.
	var cls []cnf.Clause
	add := func(ls ...cnf.Lit) { cls = append(cls, cnf.Clause(ls)) }
	add(1, 2)
	add(1, -2)
	add(-1, 3)
	add(-1, -3)
	g := s.AddClauseGroup(cls)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("tangle should be Unsat, got %v", st)
	}
	s.ReleaseGroup(g)
	// Every assignment over x1..x3 must again be attainable.
	for mask := 0; mask < 8; mask++ {
		assumps := []cnf.Lit{
			cnf.MkLit(1, mask&1 != 0),
			cnf.MkLit(2, mask&2 != 0),
			cnf.MkLit(3, mask&4 != 0),
		}
		if st := s.SolveAssume(assumps); st != Sat {
			t.Fatalf("mask %d: stale learnt constrains released group: %v", mask, st)
		}
	}
}

// Cores reported under caller assumptions must never mention activation
// literals of live groups.
func TestCoreExcludesActivationLiterals(t *testing.T) {
	s := New()
	s.AddClause(1, 2)
	s.AddClauseGroup(groupFromLits([]cnf.Lit{-3, -1}, []cnf.Lit{-3, -2}))
	if st := s.SolveAssume([]cnf.Lit{3}); st != Unsat {
		t.Fatalf("want Unsat, got %v", st)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("empty core")
	}
	for _, l := range core {
		if l.Var() != 3 && l.Var() != 1 && l.Var() != 2 {
			t.Fatalf("core leaks activation literal: %v", core)
		}
	}
}

// Property: for random formulas split into a base and a group, (base+group)
// must agree with a monolithic solver, and after release the base must agree
// with a base-only solver — across repeated swap cycles so compaction and
// learnt recycling get exercised. Each seed runs once unrestricted and once
// with branching restricted to a random subset of the base variables, which
// leaves out every activation variable too.
func TestGroupSwapEquivalenceProperty(t *testing.T) {
	for _, restrict := range []bool{false, true} {
		for seed := int64(0); seed < 30; seed++ {
			groupSwapCycles(t, seed, restrict)
		}
	}
}

func groupSwapCycles(t *testing.T, seed int64, restrict bool) {
	rng := rand.New(rand.NewSource(seed))
	nv := 8 + rng.Intn(8)
	base := cnf.New(nv)
	for i := 0; i < 15+rng.Intn(20); i++ {
		k := 1 + rng.Intn(3)
		cl := make([]cnf.Lit, 0, k)
		for j := 0; j < k; j++ {
			cl = append(cl, cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
		}
		base.AddClause(cl...)
	}
	s := New()
	s.AddFormula(base)
	if restrict {
		restrictRandomly(rand.New(rand.NewSource(seed)), s, nv)
	}
	for round := 0; round < 4; round++ {
		var groupCls []cnf.Clause
		for i := 0; i < 5+rng.Intn(10); i++ {
			k := 1 + rng.Intn(3)
			cl := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				cl = append(cl, cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
			}
			groupCls = append(groupCls, cl)
		}
		g := s.AddClauseGroup(groupCls)

		mono := New()
		mono.AddFormula(base)
		for _, c := range groupCls {
			mono.AddClause(c...)
		}
		want, got := mono.Solve(), s.Solve()
		if want != got {
			t.Fatalf("restrict=%v seed %d round %d: group solver %v, monolithic %v", restrict, seed, round, got, want)
		}
		if got == Sat {
			m := s.Model()
			all := base.Clone()
			for _, c := range groupCls {
				all.AddClause(c...)
			}
			if !evalClausesOnly(all, m) {
				t.Fatalf("restrict=%v seed %d round %d: group model falsifies formula", restrict, seed, round)
			}
		}
		s.ReleaseGroup(g)

		baseOnly := New()
		baseOnly.AddFormula(base)
		if want, got := baseOnly.Solve(), s.Solve(); want != got {
			t.Fatalf("restrict=%v seed %d round %d: after release %v, base-only %v", restrict, seed, round, got, want)
		}
	}
}

// evalClausesOnly checks every clause has a true literal under m (the model
// may cover more variables than the formula declares).
func evalClausesOnly(f *cnf.Formula, m cnf.Assignment) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if m.LitValue(l) == cnf.True {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
