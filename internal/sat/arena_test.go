package sat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
)

// TestReduceDBKeepsReasonClauses pins the invariant that reduceDB never
// deletes a locked (reason) clause, no matter how low its activity is: the
// antecedent of an assigned variable must survive reduction so conflict
// analysis can expand it.
func TestReduceDBKeepsReasonClauses(t *testing.T) {
	s := New()
	s.EnsureVars(20)

	// A learnt clause with the lowest possible activity and local-tier glue:
	// prime deletion bait.
	reasonCla := s.addLearnt([]lit{mkLit(1, false), mkLit(2, false), mkLit(3, false)}, 10)
	s.claSetActivity(reasonCla, 0)

	// Junk learnt clauses (size 3, unlocked, higher activity, same local-tier
	// glue) so reduceDB has a lower half to drop that should contain only
	// reasonCla by activity.
	for i := 0; i < 10; i++ {
		v := 4 + i
		c := s.addLearnt([]lit{mkLit(v, false), mkLit(v+1, true), mkLit(19, false)}, 10)
		s.claSetActivity(c, float32(i+1))
	}

	// Make reasonCla the antecedent of variable 1: falsify lits 2 and 3 at a
	// decision level, then enqueue lit 1 with reasonCla as its reason.
	s.newDecisionLevel()
	s.uncheckedEnqueue(mkLit(2, true), reasonUndef)
	s.uncheckedEnqueue(mkLit(3, true), reasonUndef)
	s.uncheckedEnqueue(mkLit(1, false), reasonCla)

	s.reduceDB()

	r := s.reason[1]
	if r == reasonUndef {
		t.Fatal("reduceDB dropped the reason clause of an assigned variable")
	}
	if got := lit(s.claLits(r)[0]); got != mkLit(1, false) {
		t.Fatalf("reason clause corrupted: first literal %v, want %v", got, mkLit(1, false))
	}
	found := false
	for _, tier := range [][]cref{s.learntsCore, s.learntsMid, s.learntsLocal} {
		for _, c := range tier {
			if c == r {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("reason clause no longer in the learnt database")
	}
}

// TestCompactionPreservesModels is the arena-compaction property test on the
// SAT side: solving, forcing a compaction, and re-solving must agree with a
// fresh solver on the same clause set, and returned models must satisfy the
// formula.
func TestCompactionPreservesModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		nVars := 3 + rng.Intn(7)
		f := randomFormula(rng, nVars, 2+rng.Intn(25), 3)
		s := New()
		s.AddFormula(f)
		st1 := s.Solve()
		s.reduceDB()
		s.garbageCollect() // force relocation of every live cref
		st2 := s.Solve()
		if st1 != st2 {
			t.Fatalf("trial %d: status changed across compaction: %v → %v", trial, st1, st2)
		}
		if st2 == Sat && !f.Eval(s.Model()) {
			t.Fatalf("trial %d: post-compaction model does not satisfy formula", trial)
		}
		// Grow the instance incrementally after compaction; compare against a
		// fresh solver to catch stale crefs in watches/reasons.
		extra := make([]cnf.Lit, 0, 3)
		for j := 0; j < 1+rng.Intn(3); j++ {
			v := cnf.Var(1 + rng.Intn(nVars))
			extra = append(extra, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		f.AddClause(extra...)
		s.AddClause(extra...)
		s.garbageCollect()
		got := s.Solve()
		fresh := New()
		fresh.AddFormula(f)
		want := fresh.Solve()
		if got != want {
			t.Fatalf("trial %d: incremental-after-GC=%v fresh=%v", trial, got, want)
		}
		if got == Sat && !f.Eval(s.Model()) {
			t.Fatalf("trial %d: incremental model invalid after GC", trial)
		}
	}
}

// TestCompactionPreservesCores is the UNSAT side of the compaction property:
// failed-assumption cores extracted after a forced compaction must still be
// genuine cores (brute-force verified).
func TestCompactionPreservesCores(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 120; trial++ {
		nVars := 3 + rng.Intn(6)
		f := randomFormula(rng, nVars, 2+rng.Intn(18), 3)
		assumps := make([]cnf.Lit, 0, nVars)
		for v := 1; v <= nVars; v++ {
			if rng.Intn(2) == 0 {
				assumps = append(assumps, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
		}
		s := New()
		s.AddFormula(f)
		// Churn the arena first: solve once, reduce, compact.
		s.Solve()
		s.reduceDB()
		s.garbageCollect()
		st := s.SolveAssume(assumps)
		g := f.Clone()
		for _, a := range assumps {
			g.AddUnit(a)
		}
		want := bruteForceSat(g)
		if (st == Sat) != want {
			t.Fatalf("trial %d: post-GC solver=%v brute=%v", trial, st, want)
		}
		if st == Unsat {
			core := s.Core()
			h := f.Clone()
			for _, a := range core {
				h.AddUnit(a)
			}
			if bruteForceSat(h) {
				t.Fatalf("trial %d: post-GC core %v is satisfiable", trial, core)
			}
		}
	}
}

// TestBinaryHeavyPropagation exercises the binary-clause fast path (the
// watch entry itself resolves the clause; the arena is never read) on a
// large implication chain and against brute force on random 2-SAT.
func TestBinaryHeavyPropagation(t *testing.T) {
	// Long chain: x1 → x2 → … → xn with unit x1 forces everything true.
	const n = 5000
	f := cnf.New(n)
	f.AddUnit(1)
	for i := 1; i < n; i++ {
		f.AddClause(cnf.Lit(-i), cnf.Lit(i+1))
	}
	s := New()
	s.AddFormula(f)
	if st := s.Solve(); st != Sat {
		t.Fatalf("chain: got %v, want SAT", st)
	}
	m := s.Model()
	for v := cnf.Var(1); v <= n; v += 97 {
		if m.Get(v) != cnf.True {
			t.Fatalf("chain: var %d not propagated true", v)
		}
	}

	// Random 2-SAT vs brute force, including UNSAT cycles.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		nVars := 2 + rng.Intn(8)
		g := cnf.New(nVars)
		for i := 0; i < 2+rng.Intn(24); i++ {
			a := cnf.MkLit(cnf.Var(1+rng.Intn(nVars)), rng.Intn(2) == 0)
			b := cnf.MkLit(cnf.Var(1+rng.Intn(nVars)), rng.Intn(2) == 0)
			g.AddClause(a, b)
		}
		want := bruteForceSat(g)
		s := New()
		s.AddFormula(g)
		st := s.Solve()
		if (st == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, st, want)
		}
		if st == Sat && !g.Eval(s.Model()) {
			t.Fatalf("trial %d: invalid 2-SAT model", trial)
		}
	}
}

// TestBinaryReasonClearedOnRemoval pins the fix for a binary-fast-path leak:
// a binary clause {a,b} propagating b stores b at arena position 1 (binary
// propagation never reorders literals), so removeClause must clear reason
// slots for BOTH watched positions. Before the fix, simplifyDB freed the
// satisfied clause but left reason[b] pointing at it, and every compaction
// resurrected the dead words forever.
func TestBinaryReasonClearedOnRemoval(t *testing.T) {
	s := New()
	s.AddClause(1, 2) // binary clause; lit for var 2 sits at position 1
	s.AddClause(-1)   // unit: falsifies 1, propagates 2 with the binary reason
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	// Solve's simplifyDB removes the now-satisfied binary clause; the reason
	// slot of var 2 must not keep a cref into freed arena words.
	if r := s.reason[2]; r != reasonUndef {
		t.Fatalf("reason[2] = %v, want reasonUndef after clause removal", r)
	}
	s.garbageCollect()
	if w := s.Stats().ArenaWords; w != 0 {
		t.Fatalf("arena holds %d words after GC, want 0 (dead clause resurrected)", w)
	}
}

// TestConflictBudgetIsPerCall pins that the conflict budget is counted per
// Solve call, not over the solver's lifetime. With a reused solver (as
// maxsat's linear search and core's persistent phiSolver do), a lifetime
// comparison made search() return Unknown instantly while the restart loop's
// per-call check never broke — an infinite loop inside SolveAssume.
func TestConflictBudgetIsPerCall(t *testing.T) {
	// Hard UNSAT pigeonhole so a tiny budget is always exhausted.
	n := 8
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
	s := New()
	s.AddFormula(f)
	s.SetConflictBudget(10)
	for call := 0; call < 3; call++ {
		done := make(chan Status, 1)
		go func() { done <- s.Solve() }()
		select {
		case st := <-done:
			if st != Unknown {
				t.Fatalf("call %d: got %v, want Unknown under tiny budget", call, st)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("call %d: Solve hung — budget counted over solver lifetime", call)
		}
	}
}

// TestArenaStatsCounters sanity-checks the arena counters exposed in Stats.
func TestArenaStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomFormula(rng, 10, 40, 3)
	s := New()
	s.AddFormula(f)
	st := s.Stats()
	if st.ArenaWords == 0 {
		t.Fatal("arena empty after AddFormula")
	}
	if st.ArenaGCs != 0 {
		t.Fatalf("unexpected compactions before solving: %d", st.ArenaGCs)
	}
	s.Solve()
	s.reduceDB()
	s.garbageCollect()
	st = s.Stats()
	if st.ArenaGCs != 1 {
		t.Fatalf("ArenaGCs = %d, want 1 after forced compaction", st.ArenaGCs)
	}
	if st.ArenaWasted != 0 {
		t.Fatalf("ArenaWasted = %d, want 0 right after compaction", st.ArenaWasted)
	}
}

// checkWatchArenaInvariants walks every span and asserts the watch-arena
// representation invariants: spans lie within the arena, no two spans
// overlap, every watcher's cref points at a live clause header, and
// watchWaste accounts exactly for the slots no span owns.
func checkWatchArenaInvariants(t *testing.T, s *Solver) {
	t.Helper()
	owned := make([]bool, len(s.watchArena))
	reserved := 0
	for qi := range s.wspans {
		sp := s.wspans[qi]
		if sp.n < 0 || sp.cap < sp.n {
			t.Fatalf("span %d: n=%d cap=%d", qi, sp.n, sp.cap)
		}
		if int(sp.off)+int(sp.cap) > len(s.watchArena) {
			t.Fatalf("span %d: [%d,%d) exceeds arena len %d",
				qi, sp.off, int(sp.off)+int(sp.cap), len(s.watchArena))
		}
		reserved += int(sp.cap)
		for k := int32(0); k < sp.cap; k++ {
			if owned[sp.off+k] {
				t.Fatalf("span %d overlaps another span at slot %d", qi, sp.off+k)
			}
			owned[sp.off+k] = true
		}
		for _, w := range s.watchList(lit(qi)) {
			c := w.cref()
			if int(c) >= len(s.arena) {
				t.Fatalf("span %d: watcher cref %d out of arena", qi, c)
			}
			if s.arena[c]&hdrReloc != 0 {
				t.Fatalf("span %d: watcher points at relocated clause %d", qi, c)
			}
		}
	}
	if waste := len(s.watchArena) - reserved; waste != s.watchWaste {
		t.Fatalf("watchWaste = %d, but %d arena slots are unowned", s.watchWaste, waste)
	}
}

// TestWatchArenaInvariants drives solvers through load, search, clause-DB
// reduction, arena GC, and explicit watch compaction, checking the flat
// watch arena's representation invariants at every stage.
func TestWatchArenaInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 40; trial++ {
		nVars := 10 + rng.Intn(40)
		f := randomFormula(rng, nVars, 4*nVars, 3)
		s := New()
		s.AddFormula(f)
		checkWatchArenaInvariants(t, s)
		s.Solve()
		checkWatchArenaInvariants(t, s)
		s.reduceDB()
		s.garbageCollect()
		checkWatchArenaInvariants(t, s)
		s.compactWatches()
		if s.watchWaste != 0 {
			t.Fatalf("trial %d: watchWaste = %d after compactWatches, want 0", trial, s.watchWaste)
		}
		checkWatchArenaInvariants(t, s)
		// The compacted solver must still search correctly.
		fresh := New()
		fresh.AddFormula(f)
		if got, want := s.Solve(), fresh.Solve(); got != want {
			t.Fatalf("trial %d: post-compaction solve=%v fresh=%v", trial, got, want)
		}
	}
}

// TestDenseLoadKeepsWatchArena: a whole-formula load fits in the watch arena
// it reserves, even where AddClause's normalization moves a watcher to a list
// the reservation never carved. Units fix x1..x1500 first, so each later
// clause ¬xi ∨ y ∨ zi drops ¬xi and watches zi, whose list has no room: 1,500
// lists relocate to the arena tail, and the tail must hold them without the
// arena regrowing.
func TestDenseLoadKeepsWatchArena(t *testing.T) {
	const units, dense, denseClauses = 1500, 5000, 20000
	rng := rand.New(rand.NewSource(3))
	denseLit := func() cnf.Lit { return cnf.MkLit(cnf.Var(units+1+rng.Intn(dense)), rng.Intn(2) == 0) }
	f := cnf.New(units + dense + units)
	for i := 1; i <= units; i++ {
		f.AddUnit(cnf.PosLit(cnf.Var(i)))
	}
	for i := 0; i < denseClauses; i++ {
		f.AddClause(denseLit(), denseLit(), denseLit())
	}
	for i := 1; i <= units; i++ {
		f.AddClause(cnf.NegLit(cnf.Var(i)), denseLit(), cnf.PosLit(cnf.Var(units+dense+i)))
	}

	r := New()
	r.EnsureVars(f.NumVars)
	r.reserveWatches(f.Clauses)
	carved, room := len(r.watchArena), cap(r.watchArena)

	s := New()
	s.AddFormula(f)
	if len(s.watchArena) <= carved {
		t.Fatalf("the load put nothing past its %d carved slots; no watcher moved to an uncarved list", carved)
	}
	if cap(s.watchArena) != room {
		t.Fatalf("the load regrew the watch arena from %d to %d slots (%d carved, %d in use)",
			room, cap(s.watchArena), carved, len(s.watchArena))
	}
	checkWatchArenaInvariants(t, s)
}
