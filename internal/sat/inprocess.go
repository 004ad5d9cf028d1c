package sat

import "repro/internal/cnf"

// Inprocessing: simplification of the live clause database between restarts,
// scheduled by lifetime conflicts (Solver.inprocessConflicts, doubling
// after every round) and always run at decision level 0. A round is
//
//  1. top-level simplification (reuse of simplifyDB),
//  2. backward subsumption + self-subsumption strengthening over occurrence
//     lists carved per literal (subsumeRound),
//  3. clause vivification: re-propagate each candidate clause's negated
//     literals and shrink it on conflict or implication, bounded by
//     vivifyBudget propagations per round (vivifyRound),
//  4. bounded variable elimination: resolve a low-occurrence variable away
//     when that does not grow the database, saving the removed clauses on a
//     reconstruction stack so models still cover it (bveRound),
//  5. a sweep dropping the round's tombstoned clauses, then arena GC.
//
// Group clauses are never candidates (they live outside the clause lists),
// activation variables are never eliminated or strengthened away, and
// assumption variables are frozen by SolveAssume before any round runs, so
// clause groups and incremental solving remain sound. Eliminated variables
// come back transparently: addClauseCref and SolveAssume restore a
// variable's saved clauses whenever a new clause or assumption mentions it.
//
// Soundness with groups needs one observation used throughout: no clause
// ever contains a negated activation literal, and rounds run with no
// assumptions asserted, so during a round a group clause can only ever
// propagate its activation variable TRUE — an assignment that satisfies
// exactly that group's clauses and enables nothing else. Any conflict or
// implication a vivification probe derives therefore survives deleting the
// group clauses from the derivation, which keeps shrunk clauses valid after
// ReleaseGroup. Learnt clauses that resolved a group clause contain the
// activation literal positively, and the strengthening guard below keeps it
// there, preserving the ReleaseGroup reclamation invariant.

// Inprocessing limits.
const (
	// defaultInprocessConflicts is the conflict interval before the first
	// round (Solver.inprocessConflicts; negative disables inprocessing).
	defaultInprocessConflicts = 1000
	// vivifyBudget bounds each round's vivification pass in unit
	// propagations; exhaustion leaves the remaining candidates for the next
	// round.
	vivifyBudget = 50000
	// bveOccLimit caps bounded variable elimination: a variable with more
	// occurrences than this in either polarity is never a candidate.
	bveOccLimit = 16
)

// elimVarRec records one eliminated variable: which clauses were removed
// with it (an index range into elimBnd/elimLits) and whether the
// elimination is still in effect (restoreVar marks records dead).
type elimVarRec struct {
	v           int32
	first, last int32 // clause index range into elimBnd
	live        bool
}

// inprocessDue reports whether the conflict-interval schedule calls for a
// round. The first round fires once s.inprocessConflicts lifetime
// conflicts have accumulated — never at solve entry, so the many short-lived
// or short-query solvers in an engine run (oracle pools, candidate probes)
// pay nothing until search is demonstrably hard.
func (s *Solver) inprocessDue() bool {
	gap := s.inprocGap
	if gap == 0 {
		gap = s.inprocessConflicts
	}
	return s.inprocessConflicts > 0 && s.ok &&
		s.conflicts-s.lastInproc >= gap
}

// inprocess runs one simplification round. Must be called at decision level
// 0 with propagation complete; no-ops otherwise.
func (s *Solver) inprocess() {
	if !s.ok || s.decisionLevel() != 0 || s.qhead < len(s.trail) {
		return
	}
	s.inprocRounds++
	s.lastInproc = s.conflicts
	if s.inprocGap < s.inprocessConflicts {
		s.inprocGap = s.inprocessConflicts
	} else {
		s.inprocGap *= 2
	}
	s.simplifyDB()
	if s.ok {
		s.buildOcc()
		s.freezeGroupVars()
		s.subsumeRound()
	}
	if s.ok {
		s.vivifyRound()
	}
	if s.ok {
		s.bveRound()
	}
	// Tombstoned clauses (size 0) leave every list before anything else can
	// observe them; only then is compaction safe.
	s.sweepDead()
	s.maybeGC()
}

// inprocRemove detaches and frees clause c mid-round, leaving a size-0
// tombstone so occurrence lists and clause lists skip it until sweepDead.
func (s *Solver) inprocRemove(c cref) {
	s.detach(c)
	if v := s.lockedVar(c); v >= 0 {
		s.reason[v] = reasonUndef
	}
	s.freeClause(c)
	s.claSetSize(c, 0)
}

// buildOcc rebuilds the occurrence lists and the round's candidate list
// over the problem clauses and all three learnt tiers. Like reserveWatches,
// every list is carved out of ONE flat backing array sized by a counting
// pass (a per-list allocation per nonempty literal would dominate the
// round): capacities are pinned so the rare mid-round append — a BVE
// resolvent joining a list — reallocates that list alone instead of
// clobbering its neighbour. The flat backing and the counting scratch
// (watchCnt, all-zero between uses) are retained across rounds, so steady
// state allocates nothing.
func (s *Solver) buildOcc() {
	s.occ = growTo(s.occ, len(s.wspans))
	s.occStamp = growTo(s.occStamp, len(s.wspans))
	if s.occStampN > 1<<31 {
		clear(s.occStamp)
		s.occStampN = 0
	}
	cnt := growTo(s.watchCnt, len(s.wspans))
	s.watchCnt = cnt
	cand := s.inprocCand[:0]
	total := 0
	for _, list := range [][]cref{s.clauses, s.learntsCore, s.learntsMid, s.learntsLocal} {
		for _, c := range list {
			for _, u := range s.claLits(c) {
				cnt[u]++
			}
			total += s.claSize(c)
			cand = append(cand, c)
		}
	}
	s.inprocCand = cand
	if cap(s.occFlat) < total {
		s.occFlat = make([]cref, total)
	}
	flat := s.occFlat[:total]
	off := 0
	for i := range s.occ {
		n := int(cnt[i])
		if n == 0 {
			s.occ[i] = nil
			continue
		}
		s.occ[i] = flat[off : off : off+n]
		off += n
		cnt[i] = 0 // scratch table all-zero again on return
	}
	for _, c := range s.inprocCand {
		for _, u := range s.claLits(c) {
			s.occ[u] = append(s.occ[u], c)
		}
	}
}

// freezeGroupVars stamps every variable occurring in a live group's clauses
// as frozen for this round, so bounded variable elimination never resolves
// a group clause away (mirroring the reduceDB protections).
func (s *Solver) freezeGroupVars() {
	s.roundFrozen = growTo(s.roundFrozen, s.numVars+1)
	if s.roundStamp == ^uint32(0) {
		clear(s.roundFrozen)
		s.roundStamp = 0
	}
	s.roundStamp++
	for gi := range s.groups {
		for _, c := range s.groups[gi].crefs {
			for _, u := range s.claLits(c) {
				s.roundFrozen[lit(u).varIdx()] = s.roundStamp
			}
		}
	}
}

// clauseHasSel reports whether any literal of c is over a group activation
// variable (true only for learnt clauses that resolved a group clause).
func (s *Solver) clauseHasSel(c cref) bool {
	for _, u := range s.claLits(c) {
		if v := lit(u).varIdx(); v < len(s.isSel) && s.isSel[v] {
			return true
		}
	}
	return false
}

// --- backward subsumption + self-subsumption strengthening ---

// subsumeOccLimit skips subsumption attempts whose cheapest occurrence list
// is still this long: the quadratic walk would dominate the round.
const subsumeOccLimit = 300

// subsumeRound runs one backward-subsumption sweep: every candidate clause
// C tries to remove (C ⊆ D) or strengthen (C self-subsumes D on one
// literal) the clauses sharing C's least-occurring literal.
func (s *Solver) subsumeRound() {
	for _, c := range s.inprocCand {
		if !s.ok {
			return
		}
		if s.claSize(c) < 2 {
			continue // tombstoned (or absorbed) earlier in the round
		}
		s.subsumeWith(c)
	}
}

// subsumeWith uses c as the subsumer. Stamping c's literals makes each
// containment test a single walk over the candidate clause.
func (s *Solver) subsumeWith(c cref) {
	ls := s.claLits(c)
	n := len(ls)
	s.occStampN++
	st := s.occStampN
	best := lit(ls[0])
	for _, u := range ls {
		p := lit(u)
		s.occStamp[p] = st
		if len(s.occ[p]) < len(s.occ[best]) {
			best = p
		}
	}
	if len(s.occ[best]) > subsumeOccLimit {
		return
	}
	cLearnt := s.claLearnt(c)
	for _, d := range s.occ[best] {
		if d == c || s.claSize(d) < n || s.claSize(c) != n {
			// Size checks double as liveness checks: a tombstone has size 0,
			// and c bails out if a previous d's unit propagation shrank it.
			continue
		}
		hits, negCnt := 0, 0
		var neg lit
		for _, u := range s.claLits(d) {
			q := lit(u)
			if s.occStamp[q] == st {
				hits++
			} else if s.occStamp[q.neg()] == st {
				negCnt++
				neg = q
			}
		}
		switch {
		case hits == n:
			// C ⊆ D: D is redundant. A learnt clause never subsumes away an
			// original (the original's lifetime guarantees matter more than
			// the duplicate words).
			if s.claLearnt(d) || !cLearnt {
				s.inprocRemove(d)
				s.subsumedCls++
			}
		case hits == n-1 && negCnt == 1:
			// Self-subsumption: resolving C and D on var(neg) yields a subset
			// of D \ {neg}, so D can drop neg. Never drop an activation
			// literal — ReleaseGroup relies on it staying in learnts.
			if v := neg.varIdx(); v < len(s.isSel) && s.isSel[v] {
				continue
			}
			s.strengthenClause(d, neg)
			s.strengthened++
			if !s.ok {
				return
			}
		}
	}
}

// strengthenClause removes literal q from clause c (both known to be live),
// also dropping any literal false at level 0 and removing the clause
// outright if it is satisfied at level 0 — keeping the watch invariants
// intact in every case. A clause shrunk to a unit is absorbed into the
// level-0 trail.
func (s *Solver) strengthenClause(c cref, q lit) {
	for _, u := range s.claLits(c) {
		if lit(u) != q && s.litValue(lit(u)) == lTrue {
			s.inprocRemove(c)
			return
		}
	}
	s.detach(c)
	ls := s.claLits(c)
	j := 0
	for _, u := range ls {
		if lit(u) != q && s.litValue(lit(u)) != lFalse {
			ls[j] = u
			j++
		}
	}
	s.wasted += len(ls) - j
	s.claSetSize(c, j)
	switch j {
	case 0:
		s.ok = false
		s.freeClause(c)
	case 1:
		p := lit(ls[0])
		s.freeClause(c)
		s.claSetSize(c, 0)
		s.uncheckedEnqueue(p, reasonUndef)
		if s.propagate() != crefUndef {
			s.ok = false
		}
	default:
		s.attach(c)
	}
}

// --- clause vivification ---

// vivifyRound tries to shrink every problem clause and core/mid learnt by
// re-propagating its negated literals, spending at most vivifyBudget unit
// propagations. Local-tier learnts churn too fast to be worth the probes,
// and clauses over activation variables are left alone (shrinking one could
// drop the activation literal a future ReleaseGroup needs).
func (s *Solver) vivifyRound() {
	start := s.propagations
	for _, c := range s.inprocCand {
		if !s.ok {
			return
		}
		if s.propagations-start > vivifyBudget {
			return
		}
		if s.claSize(c) < 3 {
			continue // dead, absorbed, or binary (nothing to shrink)
		}
		if s.claLearnt(c) && s.claTier(c) == tierLocal {
			continue
		}
		if s.clauseHasSel(c) {
			continue
		}
		s.vivifyClause(c)
	}
}

// vivifyClause probes clause c literal by literal: assume the negation of
// each kept literal in turn and propagate. A conflict proves the kept
// prefix is already a valid clause; an implied literal closes the clause
// early; a falsified literal is redundant and dropped. The clause is
// detached during probing so it cannot propagate against itself.
func (s *Solver) vivifyClause(c cref) {
	buf := s.vivTmp[:0]
	for _, u := range s.claLits(c) {
		p := lit(u)
		switch s.litValue(p) {
		case lTrue:
			s.vivTmp = buf[:0]
			s.inprocRemove(c) // satisfied at level 0
			return
		case lFalse:
			// level-0 false literal: dropped by the rewrite below
		default:
			buf = append(buf, p)
		}
	}
	s.vivTmp = buf[:0]
	n0 := s.claSize(c)
	s.detach(c)
	out := s.vivOut[:0]
	for i, p := range buf {
		if i == len(buf)-1 && len(out) == i {
			// Nothing dropped and this is the last literal: no probe can
			// shrink the clause any further, skip the wasted propagation.
			out = append(out, p)
			break
		}
		stop := false
		switch s.litValue(p) {
		case lTrue:
			// DB ∧ ¬out ⊨ p: the clause closes as out ∨ p.
			out = append(out, p)
			stop = true
		case lFalse:
			// DB ∧ ¬out ⊨ ¬p: p is redundant in this clause.
		default:
			out = append(out, p)
			s.newDecisionLevel()
			s.uncheckedEnqueue(p.neg(), reasonUndef)
			if s.propagate() != crefUndef {
				stop = true // DB ∧ ¬out ⊢ ⊥: out alone is a valid clause
			}
		}
		if stop {
			break
		}
	}
	s.cancelUntil(0)
	s.vivOut = out[:0]
	if len(out) == n0 {
		s.attach(c)
		return
	}
	s.vivified++
	ls := s.claLits(c)
	for i, p := range out {
		ls[i] = uint32(p)
	}
	s.wasted += n0 - len(out)
	s.claSetSize(c, len(out))
	switch len(out) {
	case 0:
		// Cannot happen while propagation is conflict-free at level 0 (an
		// all-false clause would have conflicted already); be safe anyway.
		s.ok = false
		s.freeClause(c)
	case 1:
		p := lit(ls[0])
		s.freeClause(c)
		s.claSetSize(c, 0)
		if s.litValue(p) == lTrue {
			return // probing only assigns above level 0; defensive
		}
		s.uncheckedEnqueue(p, reasonUndef)
		if s.propagate() != crefUndef {
			s.ok = false
		}
	default:
		s.attach(c)
	}
}

// --- bounded variable elimination ---

// bveRound tries to eliminate every unassigned, unfrozen, non-activation
// variable whose occurrence lists are within bveOccLimit.
func (s *Solver) bveRound() {
	for v := 1; v <= s.numVars; v++ {
		if !s.ok {
			return
		}
		if s.varValue(v) != lUndef || s.eliminated[v] || s.frozen[v] {
			continue
		}
		if v < len(s.isSel) && s.isSel[v] {
			continue
		}
		if s.roundFrozen[v] == s.roundStamp {
			continue // occurs in a live group's clauses
		}
		s.tryEliminate(v)
	}
}

// bveGather fills dst with the live problem clauses that still contain p
// (occurrence lists go stale as the round rewrites clauses, so membership
// is re-verified). Learnt clauses never join a resolution: they are flushed
// at elimination time instead.
func (s *Solver) bveGather(dst []cref, p lit) ([]cref, bool) {
	dst = dst[:0]
	for _, c := range s.occ[p] {
		if s.claSize(c) == 0 || s.claLearnt(c) {
			continue
		}
		found := false
		for _, u := range s.claLits(c) {
			if lit(u) == p {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		dst = append(dst, c)
		if len(dst) > bveOccLimit {
			return dst, false
		}
	}
	return dst, true
}

// tryEliminate resolves variable v away if the non-tautological resolvents
// of its positive × negative problem clauses number at most the clauses
// removed, so elimination never grows the database. The removed clauses go
// to the reconstruction stack first (the arena may reallocate while
// resolvents are added), learnt clauses mentioning v are flushed, and v is
// skipped by decisions until restoreVar brings it back.
func (s *Solver) tryEliminate(v int) {
	pv, nv := mkLit(v, false), mkLit(v, true)
	var okP, okN bool
	s.bvePos, okP = s.bveGather(s.bvePos, pv)
	s.bveNeg, okN = s.bveGather(s.bveNeg, nv)
	if !okP || !okN {
		return
	}
	pos, neg := s.bvePos, s.bveNeg
	// Count non-tautological resolvents, bailing once over budget.
	budget := len(pos) + len(neg)
	cnt := 0
	for _, cp := range pos {
		s.occStampN++
		st := s.occStampN
		for _, u := range s.claLits(cp) {
			if p := lit(u); p != pv {
				s.occStamp[p] = st
			}
		}
		for _, cn := range neg {
			taut := false
			for _, u := range s.claLits(cn) {
				if q := lit(u); q != nv && s.occStamp[q.neg()] == st {
					taut = true
					break
				}
			}
			if !taut {
				cnt++
				if cnt > budget {
					return
				}
			}
		}
	}
	// Commit. Save the removed clauses first: resolvent installation appends
	// to the arena, which may reallocate under the gathered literal windows.
	if len(s.elimBnd) == 0 {
		s.elimBnd = append(s.elimBnd, 0)
	}
	rec := elimVarRec{v: int32(v), first: int32(len(s.elimBnd)) - 1, live: true}
	for _, lists := range [][]cref{pos, neg} {
		for _, c := range lists {
			for _, u := range s.claLits(c) {
				s.elimLits = append(s.elimLits, lit(u))
			}
			s.elimBnd = append(s.elimBnd, int32(len(s.elimLits)))
		}
	}
	rec.last = int32(len(s.elimBnd)) - 1
	nPos := len(pos)
	for _, lists := range [][]cref{pos, neg} {
		for _, c := range lists {
			s.inprocRemove(c)
		}
	}
	// Flush learnt clauses over v: sound (learnts are always deletable) and
	// required for decisions to skip v entirely.
	for _, p := range [2]lit{pv, nv} {
		for _, c := range s.occ[p] {
			if s.claSize(c) == 0 || !s.claLearnt(c) {
				continue
			}
			for _, u := range s.claLits(c) {
				if lit(u) == p {
					s.inprocRemove(c)
					break
				}
			}
		}
	}
	s.eliminated[v] = true
	s.elimIdx[v] = int32(len(s.elimStack)) + 1
	s.elimStack = append(s.elimStack, rec)
	s.elimVarCnt++
	// Install the resolvents from the saved copies.
	for i := 0; i < nPos; i++ {
		pls := s.elimLits[s.elimBnd[int(rec.first)+i]:s.elimBnd[int(rec.first)+i+1]]
		for j := nPos; j < int(rec.last-rec.first); j++ {
			nls := s.elimLits[s.elimBnd[int(rec.first)+j]:s.elimBnd[int(rec.first)+j+1]]
			taut := false
			for _, p := range pls {
				if p == pv {
					continue
				}
				for _, q := range nls {
					if q == p.neg() {
						taut = true
						break
					}
				}
				if taut {
					break
				}
			}
			if taut {
				continue
			}
			res := s.resolvTmp[:0]
			for _, p := range pls {
				if p != pv {
					res = append(res, fromLit(p))
				}
			}
			for _, q := range nls {
				if q != nv {
					res = append(res, fromLit(q))
				}
			}
			s.resolvTmp = res[:0]
			c, _ := s.addClauseCref(res)
			if c != crefUndef {
				s.clauses = append(s.clauses, c)
				// Resolvents stay out of the occurrence lists (each list is
				// carved at exact capacity; appending would reallocate it one
				// literal at a time). Freezing their variables for the rest of
				// the round keeps later eliminations sound without the missing
				// entries; the next round's rebuilt lists see them normally.
				for _, u := range s.claLits(c) {
					s.roundFrozen[lit(u).varIdx()] = s.roundStamp
				}
			}
			if !s.ok {
				return
			}
		}
	}
}

// sweepDead drops the round's tombstones (size-0 clauses) from every clause
// list. Group cref lists never hold tombstones — inprocessing does not
// touch group clauses.
func (s *Solver) sweepDead() {
	s.clauses = s.sweepList(s.clauses)
	s.learntsCore = s.sweepList(s.learntsCore)
	s.learntsMid = s.sweepList(s.learntsMid)
	s.learntsLocal = s.sweepList(s.learntsLocal)
}

func (s *Solver) sweepList(cs []cref) []cref {
	kept := cs[:0]
	for _, c := range cs {
		if s.claSize(c) > 0 {
			kept = append(kept, c)
		}
	}
	return kept
}

// --- elimination restore and model reconstruction ---

// restoreLits restores every eliminated variable mentioned in lits. Called
// at the top of addClauseCref so new clauses (including group clauses and
// blocking clauses) may freely mention eliminated variables.
func (s *Solver) restoreLits(lits []cnf.Lit) {
	if s.elimVarCnt == 0 {
		return // nothing ever eliminated — skip the per-literal scan
	}
	for _, l := range lits {
		if v := int(l.Var()); v > 0 && v <= s.numVars && s.eliminated[v] {
			s.restoreVar(v)
			if !s.ok {
				return
			}
		}
	}
}

// restoreVar undoes the elimination of v: its saved clauses rejoin the
// database (the resolvents stay — they are implied, and a later round can
// subsume them) and v is frozen against being eliminated again. Saved
// clauses may mention variables eliminated after v; the addClauseCref
// restore hook brings those back recursively.
func (s *Solver) restoreVar(v int) {
	idx := int(s.elimIdx[v]) - 1
	rec := &s.elimStack[idx]
	s.eliminated[v] = false
	s.elimIdx[v] = 0
	s.frozen[v] = true
	rec.live = false
	if s.decision[v] && s.varValue(v) == lUndef && !s.heap.inHeap(v) {
		s.heap.insert(v) // decisions skipped v while it was eliminated
	}
	var buf []cnf.Lit // rare path: restores happen per variable, not per solve
	for k := rec.first; k < rec.last; k++ {
		ls := s.elimLits[s.elimBnd[k]:s.elimBnd[k+1]]
		buf = buf[:0]
		for _, p := range ls {
			buf = append(buf, fromLit(p))
		}
		if c, _ := s.addClauseCref(buf); c != crefUndef {
			s.clauses = append(s.clauses, c)
		}
		if !s.ok {
			return
		}
	}
}

// extendModel completes the current model over the eliminated variables,
// newest elimination first: a variable is set to satisfy its saved clauses
// given everything assigned after it. At most one polarity can be forced —
// the resolvents the database kept guarantee that if some saved clause is
// unsatisfied without v, every such clause wants the same polarity — so the
// first forcing clause decides, and the saved phase breaks free choices
// deterministically. Runs on every Sat result; free when nothing was ever
// eliminated.
func (s *Solver) extendModel() {
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		rec := &s.elimStack[i]
		if !rec.live {
			continue
		}
		v := int(rec.v)
		val := s.phase[v]
		for k := rec.first; k < rec.last; k++ {
			ls := s.elimLits[s.elimBnd[k]:s.elimBnd[k+1]]
			sat := false
			var vl lit
			for _, p := range ls {
				if p.varIdx() == v {
					vl = p
					continue
				}
				if s.modelLitTrue(p) {
					sat = true
					break
				}
			}
			if !sat {
				val = !vl.sign() // the clause forces v's own literal true
				break
			}
		}
		if val {
			s.elimVal[v] = lTrue
		} else {
			s.elimVal[v] = lFalse
		}
	}
}

// modelLitTrue evaluates literal p under the completed model being built by
// extendModel (eliminated variables already processed read their
// reconstructed value through modelVal).
func (s *Solver) modelLitTrue(p lit) bool {
	b := s.modelVal(p.varIdx()) == cnf.True
	if p.sign() {
		return !b
	}
	return b
}
