package sat

// Conflict analysis: first-UIP learning, LBD (glue) computation, and
// MiniSat-style recursive conflict-clause minimization.

// defaultMinimizeBudget bounds recursive minimization: the number of
// reason-clause expansions allowed per conflict (Solver.minimizeBudget).
// Exhaustion keeps the remaining literals — always sound.
const defaultMinimizeBudget = 4096

// minMark values used during recursive minimization.
const (
	markImplied byte = 1 // proven implied by the remaining learnt literals
	markPoison  byte = 2 // proven (or assumed, after a budget cut) not implied
)

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.numVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heap.inHeap(v) {
		s.heap.decrease(v)
	}
}

// bumpClauseActivity bumps c's activity, rescaling every learnt tier on
// overflow.
func (s *Solver) bumpClauseActivity(c cref) {
	a := s.claActivity(c) + float32(s.claInc)
	s.claSetActivity(c, a)
	if a > 1e20 {
		for _, tier := range [][]cref{s.learntsCore, s.learntsMid, s.learntsLocal} {
			for _, l := range tier {
				s.claSetActivity(l, s.claActivity(l)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

// bumpClauseUse records that learnt clause c participated in conflict
// analysis: its activity is bumped, its used bit is set (mid-tier staleness
// tracking), and its LBD is recomputed and kept at the minimum observed so
// reduceDB can promote clauses whose glue improved. Core-tier clauses are
// already as protected as they can get and skip the recomputation.
func (s *Solver) bumpClauseUse(c cref) {
	if !s.claLearnt(c) {
		return
	}
	s.bumpClauseActivity(c)
	meta := s.arena[c+2]
	if meta>>metaTierShift&3 == tierCore {
		return
	}
	meta |= metaUsed
	if lbd := uint32(s.computeLBDWords(s.claLits(c))); lbd < meta&metaLBDMask {
		meta = meta&^metaLBDMask | lbd
	}
	s.arena[c+2] = meta
}

// computeLBD returns the literal block distance of the clause: the number of
// distinct non-zero decision levels among its literals. Levels are counted
// with a stamped per-level array, so the computation is allocation-free.
func (s *Solver) computeLBD(lits []lit) int {
	s.lbdStamp++
	n := 0
	for _, p := range lits {
		l := s.level[p.varIdx()]
		if l == 0 {
			continue
		}
		if s.lbdStamps[l] != s.lbdStamp {
			s.lbdStamps[l] = s.lbdStamp
			n++
		}
	}
	return n
}

// computeLBDWords is computeLBD over a clause's arena window.
func (s *Solver) computeLBDWords(lits []uint32) int {
	s.lbdStamp++
	n := 0
	for _, u := range lits {
		l := s.level[lit(u).varIdx()]
		if l == 0 {
			continue
		}
		if s.lbdStamps[l] != s.lbdStamp {
			s.lbdStamps[l] = s.lbdStamp
			n++
		}
	}
	return n
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (first literal is the asserting literal), the backtrack level, and the
// clause's LBD. The returned slice is scratch storage owned by the solver;
// callers must copy it (addLearnt does) before the next analyze call.
func (s *Solver) analyze(confl cref) (learnt []lit, btLevel, lbd int) {
	learnt = append(s.analyzeSt[:0], 0) // placeholder for asserting literal
	pathC := 0
	var p lit = 0
	idx := len(s.trail) - 1
	for {
		s.bumpClauseUse(confl)
		for _, u := range s.claLits(confl) {
			q := lit(u)
			if q == p {
				continue
			}
			v := q.varIdx()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand.
		for !s.seen[s.trail[idx].varIdx()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.varIdx()
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.neg()

	// Minimization. Snapshot the tail first: the literals stay seen for the
	// duration (that is what marks them "in the clause" for the redundancy
	// checks) and must be unseen at the end whether kept or dropped — and
	// appends below reuse learnt's backing array.
	tail := append(s.minimizeTmp[:0], learnt[1:]...)
	s.minBudget = s.minimizeBudget
	var abstractLevels uint32
	for _, q := range tail {
		abstractLevels |= 1 << (uint32(s.level[q.varIdx()]) & 31)
	}
	out := learnt[:1]
	for _, q := range tail {
		if s.reason[q.varIdx()] == reasonUndef || !s.litRedundantRec(q, abstractLevels) {
			out = append(out, q)
		}
	}
	learnt = out
	for _, v := range s.minClear {
		s.minMark[v] = 0
	}
	s.minClear = s.minClear[:0]
	s.minimizedLits += int64(len(tail) - (len(learnt) - 1))
	for _, q := range tail {
		s.seen[q.varIdx()] = false
	}
	s.analyzeSt = learnt[:0]
	s.minimizeTmp = tail[:0]

	// Find backtrack level: max level among learnt[1:].
	btLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].varIdx()] > s.level[learnt[maxI].varIdx()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].varIdx()])
	}
	return learnt, btLevel, s.computeLBD(learnt)
}

// litRedundantRec reports whether q0 is implied by the remaining learnt
// literals through any depth of reason-clause resolution.
// The DFS runs on an explicit stack; vars proven implied are memoized as
// markImplied for later roots, and on failure (or budget exhaustion) the
// vars reached by this call are marked poison so later roots hitting them
// fail fast instead of re-exploring. Poison is conservative — it only ever
// keeps a literal that deeper search might have removed, never the reverse.
// abstractLevels is a 32-bit hash of the levels present in the learnt
// clause: a literal from a level outside the clause can never be implied by
// it, so such branches are cut without expansion (MiniSat's abstraction).
func (s *Solver) litRedundantRec(q0 lit, abstractLevels uint32) bool {
	stack := append(s.minStack[:0], q0)
	start := len(s.minClear)
	ok := true
loop:
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.minBudget--; s.minBudget < 0 {
			ok = false
			break
		}
		// q's reason exists: the root is pre-checked by analyze, and only
		// vars with reasons are pushed.
		for _, u := range s.claLits(s.reason[q.varIdx()]) {
			l := lit(u)
			v := l.varIdx()
			if v == q.varIdx() || s.level[v] == 0 || s.seen[v] || s.minMark[v] == markImplied {
				continue // asserted / top-level / in the clause / memoized
			}
			if s.minMark[v] == markPoison || s.reason[v] == reasonUndef ||
				1<<(uint32(s.level[v])&31)&abstractLevels == 0 {
				ok = false
				break loop
			}
			s.minMark[v] = markImplied
			s.minClear = append(s.minClear, int32(v))
			stack = append(stack, l)
		}
	}
	s.minStack = stack[:0]
	if !ok {
		// This call's interim marks were justified only transitively through
		// the failed derivation: poison them (see above).
		for _, v := range s.minClear[start:] {
			s.minMark[v] = markPoison
		}
	}
	return ok
}

// analyzeFinal computes the failed-assumption core when assumption p is
// falsified: the subset of assumptions that together imply ¬p.
func (s *Solver) analyzeFinal(p lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.varIdx()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].varIdx()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == reasonUndef {
			if s.level[v] > 0 {
				s.conflict = append(s.conflict, s.trail[i].neg())
			}
		} else {
			for _, u := range s.claLits(s.reason[v]) {
				l := lit(u)
				if l.varIdx() != v && s.level[l.varIdx()] > 0 {
					s.seen[l.varIdx()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.varIdx()] = false
}
