package sat

import (
	"context"
	"errors"
)

// The CDCL driver loop: propagate, analyze conflicts, learn, restart,
// reduce the learnt database, decide.

// search runs CDCL until a model, a conflict at level 0, or budget/context
// exhaustion. Restarts happen inside the loop, driven by restart.go.
func (s *Solver) search() Status {
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.conflicts++
			s.conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel, lbd := s.analyze(confl)
			if s.testOnLearnt != nil && len(learnt) > 1 {
				s.testOnLearnt(learnt, btLevel)
			}
			s.noteConflict(lbd, len(s.trail))
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], reasonUndef)
			} else {
				c := s.addLearnt(learnt, lbd)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.learntLits += int64(len(learnt))
			s.varInc /= s.varDecay
			s.claInc /= s.claDecay
			s.learntAdjCnt--
			if s.learntAdjCnt <= 0 {
				s.learntAdjust *= s.learntAdjIncr
				s.learntAdjCnt = int64(s.learntAdjust)
				s.maxLearnts *= 1.1
			}
			continue
		}
		// No conflict.
		if s.stopRequested(false) {
			s.cancelUntil(s.assumptionLevel())
			return Unknown
		}
		if s.restartDue() {
			s.didRestart()
			s.cancelUntil(s.assumptionLevel())
			if s.decisionLevel() == 0 {
				s.simplifyDB()
				if !s.ok {
					return Unsat
				}
			}
			// Restart boundaries are off the hot path: force a context
			// check so cancellation latency never exceeds one restart.
			if s.stopRequested(true) {
				return Unknown
			}
		}
		if s.maxLearnts > 0 && float64(len(s.learntsLocal)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}
		// Assumptions as pseudo-decisions.
		next := lit(0)
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.litValue(p) {
			case lTrue:
				s.newDecisionLevel() // already satisfied; dummy level
			case lFalse:
				s.analyzeFinal(p.neg())
				return Unsat
			default:
				next = p
			}
			if next != 0 {
				break
			}
		}
		if next == 0 {
			next = s.pickBranchLit()
			if next == 0 {
				return Sat // every clause has a true literal
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, reasonUndef)
	}
}

func (s *Solver) pickBranchLit() lit {
	v := 0
	if s.randVarFreq > 0 && s.randFloat64() < s.randVarFreq && !s.heap.empty() {
		cand := s.heap.data[s.randIntn(len(s.heap.data))]
		if s.varValue(cand) == lUndef {
			v = cand
		}
	}
	for v == 0 {
		if s.heap.empty() {
			if s.restricted {
				v = s.openVar()
			}
			if v == 0 {
				return 0
			}
			break
		}
		cand := s.heap.removeMin()
		if s.varValue(cand) == lUndef {
			v = cand
		}
	}
	s.decisions++
	ph := s.phase[v]
	if s.randPhaseFreq > 0 && s.randFloat64() < s.randPhaseFreq {
		ph = s.randIntn(2) == 0
	}
	return mkLit(v, !ph)
}

// openVar is the fallback of a restricted search whose decision heap is
// empty: it returns an unassigned non-decision variable watched in a clause
// with no true literal, or 0 when there is none. With the heap empty every
// decision variable is assigned, and after conflict-free propagation both
// watched literals of a clause with no true literal are unassigned. So 0
// means every clause is satisfied and the trail extends to a model whatever
// the unassigned variables take.
func (s *Solver) openVar() int {
	for v := 1; v <= s.numVars; v++ {
		if s.decision[v] || s.varValue(v) != lUndef {
			continue
		}
		for _, p := range [2]lit{mkLit(v, false), mkLit(v, true)} {
			for _, w := range s.watchList(p) {
				if s.litValue(w.blocker) != lTrue && !s.claSatisfied(w.cref()) {
					return v
				}
			}
		}
	}
	return 0
}

func (s *Solver) assumptionLevel() int {
	if len(s.assumptions) < s.decisionLevel() {
		return len(s.assumptions)
	}
	return s.decisionLevel()
}

// conflictBudgetSpent reports whether the per-call conflict budget is used
// up. The budget counts from budgetStart, not zero — the solver may have
// been reused across many Solve calls.
func (s *Solver) conflictBudgetSpent() bool {
	return s.conflictBudget >= 0 && s.conflicts-s.budgetStart >= s.conflictBudget
}

// ctxPollMask samples the context once per 256 poll calls in the search hot
// path; at typical CDCL iteration rates this bounds the cancellation latency
// to well under a millisecond while keeping ctx.Err out of the inner loop.
const ctxPollMask = 255

// stopRequested is the single budget/cancellation poll shared by every stop
// point: it checks the per-call conflict budget unconditionally and the
// context at a sampled cadence (every stop point used to roll its own
// cadence; now they all go through here). force bypasses the sampling — used
// at restart boundaries, where the check is off the hot path — and records
// the cause of the stop for StopCause.
func (s *Solver) stopRequested(force bool) bool {
	if s.conflictBudgetSpent() {
		s.stopCause = StopConflictBudget
		return true
	}
	if s.ctx == nil {
		return false
	}
	if !force {
		s.checkCnt++
		if s.checkCnt&ctxPollMask != 0 {
			return false
		}
	}
	err := s.ctx.Err()
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.stopCause = StopDeadline
	} else {
		s.stopCause = StopCanceled
	}
	return true
}
