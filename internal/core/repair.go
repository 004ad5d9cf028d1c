package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/maxsat"
	"repro/internal/sat"
)

// repair is Algorithm 3 (RepairHkF): given the counterexample σ, localize
// faulty candidates with a MaxSAT query and repair each with an
// UnsatCore-guided strengthening or weakening. It reports whether any
// candidate changed (no change ⇒ the incompleteness case). The queue is
// consumed in order, blame appending to it as it goes, and every Gk query
// runs on the warm persistent ϕ-solver.
func (e *Engine) repair(sigma *counterexample) (bool, error) {
	ind, err := e.findCandi(sigma)
	if err != nil {
		return false, err
	}
	repairedAny := false
	if e.scrInQueue == nil {
		e.scrInQueue = make([]bool, e.in.Matrix.NumVars+1)
		e.scrMark = make([]bool, e.in.Matrix.NumVars+1)
	}
	for _, y := range ind {
		e.scrInQueue[y] = true
	}
	defer func() {
		// Sparse-clear queue membership and park the (possibly regrown)
		// queue backing for the next round.
		for _, y := range ind {
			e.scrInQueue[y] = false
		}
		e.scrQueue = ind[:0]
	}()
	for qi := 0; qi < len(ind); qi++ {
		if e.fixed[ind[qi]] {
			continue // preprocessed constants are semantically safe as-is
		}
		repaired, err := e.repairCandidate(sigma, ind[qi], &ind)
		if err != nil {
			return false, err
		}
		repairedAny = repairedAny || repaired
	}
	return repairedAny, nil
}

// appendYHat appends Ŷ for yk (Algorithm 3 line 6): variables yj with
// Hj ⊆ Hk appearing after yk in Order. The set depends only on the static
// dependency sets and the fixed Order, never on repair state.
func (e *Engine) appendYHat(dst []cnf.Var, yk cnf.Var) []cnf.Var {
	for _, yj := range e.in.Exist {
		if yj == yk {
			continue
		}
		if e.in.SubsetDeps(yj, yk) && e.orderIdx[yj] > e.orderIdx[yk] {
			dst = append(dst, yj)
		}
	}
	return dst
}

// repairCandidate is Algorithm 3's step for the queue member yk. It poses
// Gk = ϕ ∧ (yk ↔ σ′[yk]) ∧ (Hk ↔ σ[Hk]) ∧ (Ŷ ↔ σ[Ŷ]) on the ϕ-solver and
// acts on the answer: core-guided strengthening/weakening on Unsat (lines
// 11-13), blame on Sat (lines 15-17) followed, whenever σ[yk] ≠ σ′[yk], by
// the row repair from Gk with all of X pinned (patchRow), and then the
// line-18 realignment of σ[yk] with the (possibly just repaired)
// candidate's output. Blame appends to *ind. It reports whether fk
// changed.
func (e *Engine) repairCandidate(sigma *counterexample, yk cnf.Var, ind *[]cnf.Var) (bool, error) {
	yHat := e.appendYHat(e.scrYHat[:0], yk)
	e.scrYHat = yHat
	gk := append(e.scrGk[:0], cnf.MkLit(yk, sigma.yPrime.Get(yk) == cnf.True))
	for _, x := range e.in.DepSet(yk) {
		gk = append(gk, cnf.MkLit(x, sigma.x.Get(x) == cnf.True))
	}
	for _, yj := range yHat {
		gk = append(gk, cnf.MkLit(yj, sigma.y.Get(yj) == cnf.True))
	}
	e.scrGk = gk
	repaired := false
	switch e.phiSolver.SolveAssume(gk) {
	case sat.Unsat:
		// Lines 11-13: repair from the UNSAT core.
		e.stats.CoreCalls++
		core := e.phiSolver.AppendCore(e.scrCore[:0])
		beta := core[:0]
		for _, l := range core {
			if l.Var() != yk {
				beta = append(beta, l)
			}
		}
		e.scrCore = core
		// A core of yk alone means the dependencies by themselves force the
		// flip, and a repair with no literals to condition on cannot make it:
		// no progress for yk.
		if len(beta) > 0 && e.applyBeta(yk, beta, sigma) {
			repaired = true
			e.stats.CandidatesRepaired++
		}
	case sat.Sat:
		// Lines 15-17: blame other candidates whose output disagrees with
		// the model ρ of Gk.
		for _, yj := range yHat {
			e.scrMark[yj] = true
		}
		for _, yt := range e.in.Exist {
			if yt == yk || e.scrMark[yt] || e.scrInQueue[yt] {
				continue
			}
			if (e.phiSolver.ModelValue(yt) == cnf.True) != (sigma.yPrime.Get(yt) == cnf.True) {
				*ind = append(*ind, yt)
				e.scrInQueue[yt] = true
			}
		}
		for _, yj := range yHat {
			e.scrMark[yj] = false
		}
		if sigma.y.Get(yk) != sigma.yPrime.Get(yk) {
			patched, err := e.patchRow(yk, gk, sigma)
			if err != nil {
				return false, err
			}
			repaired = patched
		}
	default:
		return false, e.oracleUnknown(e.phiSolver, "repair SAT call")
	}
	// Line 18: align σ[yk] with the candidate's output at σ. The output must
	// be recomputed from the CURRENT function: a repair just flipped fk's
	// output at σ (strengthening forces 0, weakening forces 1), so the
	// pre-repair σ[y′k] is stale, and later queued candidates read σ[yk]
	// through their Ŷ assumptions.
	sigma.y.Set(yk, cnf.BoolValue(e.evalAtSigma(e.funcs[yk], sigma)))
	return repaired, nil
}

// applyBeta is Algorithm 3's lines 12-13 for β, the cube of the given
// literals of σ (failed assumptions, so β holds at σ): it strengthens fk to
// fk ∧ ¬β when σ′[yk] is 1 and weakens it to fk ∨ β otherwise, so fk gives
// ¬σ′[yk] wherever β holds, and records β's existentials (Ŷ variables) as
// fk's dependencies. An empty β is true. applyBeta reports whether fk
// changed.
func (e *Engine) applyBeta(yk cnf.Var, beta []cnf.Lit, sigma *counterexample) bool {
	old := e.funcs[yk]
	if sigma.yPrime.Get(yk) == cnf.True {
		e.setFunc(yk, e.b.And(old, e.b.Not(e.b.Cube(beta)))) // strengthen
	} else {
		e.setFunc(yk, e.b.Or(old, e.b.Cube(beta))) // weaken
	}
	for _, l := range beta {
		if e.in.IsExist(l.Var()) {
			e.recordUse(yk, l.Var())
		}
	}
	return e.funcs[yk] != old
}

// patchRow is the row repair, for a Gk that is satisfiable although yk's
// output σ′[yk] differs from the completion's σ[yk]. Gk pins only Hk, so an
// X on the row σ[Hk] other than σ[X], where a universal outside Hk excuses
// yk's output, can satisfy it, and Algorithm 3 then repairs nothing for yk.
// patchRow poses Gk, whose assumptions gk holds, with the rest of X pinned
// too, ϕ ∧ (yk ↔ σ′[yk]) ∧ (X ↔ σ[X]) ∧ (Ŷ ↔ σ[Ŷ]), on the ϕ-solver. On
// SAT it patches nothing. On UNSAT it drops yk and the universals outside
// Hk from the failed-assumption core and applies the rest, a cube β over Hk
// and Ŷ, as the Unsat branch applies its β; an empty β patches fk to the
// constant σ[yk]. This is sound for the same reason as that β: the dropped
// literals are universals outside Hk, so every Hk row matching β reaches an
// X that agrees with the core, and there any Henkin vector of a True
// instance gives fk the value σ[yk] wherever β's Ŷ literals hold. Each
// (yk, σ[Hk]) pair keeps the direction of its first patch for the whole
// run; a patch the other way is an oscillation and ends the run as
// ErrIncomplete. patchRow reports whether fk changed.
func (e *Engine) patchRow(yk cnf.Var, gk []cnf.Lit, sigma *counterexample) (bool, error) {
	row := gk[1 : 1+len(e.in.DepSet(yk))] // Hk ↔ σ[Hk]; see repairCandidate
	assumps := append(e.scrAssumps[:0], gk[0])
	for _, x := range e.in.Univ {
		assumps = append(assumps, cnf.MkLit(x, sigma.x.Get(x) == cnf.True))
	}
	assumps = append(assumps, gk[1+len(row):]...) // Ŷ ↔ σ[Ŷ]
	e.scrAssumps = assumps
	switch e.phiSolver.SolveAssume(assumps) {
	case sat.Sat:
		return false, nil
	case sat.Unknown:
		return false, e.oracleUnknown(e.phiSolver, "row repair SAT call")
	}
	core := e.phiSolver.AppendCore(e.scrCore[:0])
	beta := core[:0]
	for _, l := range core {
		if v := l.Var(); v != yk && (e.in.IsExist(v) || e.in.DepContains(yk, v)) {
			beta = append(beta, l)
		}
	}
	e.scrCore = core

	up := sigma.y.Get(yk) == cnf.True
	key := binary.LittleEndian.AppendUint32(e.scrRowKey[:0], uint32(yk))
	for i := 0; i < len(row); i += 8 {
		var bits byte
		for j, l := range row[i:min(i+8, len(row))] {
			if l.IsPos() {
				bits |= 1 << j
			}
		}
		key = append(key, bits)
	}
	e.scrRowKey = key
	if prev, seen := e.rowPatched[string(key)]; !seen {
		if e.rowPatched == nil {
			e.rowPatched = make(map[string]bool)
		}
		e.rowPatched[string(key)] = up
	} else if prev != up {
		e.stats.RowOscillations++
		return false, fmt.Errorf("%w: row repair of y%d oscillates", ErrIncomplete, yk)
	}
	if !e.applyBeta(yk, beta, sigma) {
		return false, nil
	}
	e.stats.RowRepairs++
	e.stats.CandidatesRepaired++
	return true, nil
}

// evalAtSigma evaluates f on the assignment σ = σ[X] ∪ σ[Y] (candidate
// functions may reference Ŷ variables besides their Henkin dependencies).
// The assignment view lives in an engine-owned buffer; f's support is a
// subset of Univ ∪ Exist, all rewritten here.
func (e *Engine) evalAtSigma(f boolfunc.Node, sigma *counterexample) bool {
	if e.scrEval == nil {
		e.scrEval = cnf.NewAssignment(e.in.Matrix.NumVars)
	}
	a := e.scrEval
	for _, x := range e.in.Univ {
		a.Set(x, sigma.x.Get(x))
	}
	for _, y := range e.in.Exist {
		a.Set(y, sigma.y.Get(y))
	}
	return e.b.Eval(f, a)
}

// findCandi is the FindCandi subroutine: a MaxSAT query with hard
// ϕ ∧ (X ↔ σ[X]) and soft (Y ↔ σ[Y′]); candidates whose soft constraint is
// falsified in the optimal model need repair. The returned queue aliases
// engine-owned scratch, valid until the next findCandi call.
func (e *Engine) findCandi(sigma *counterexample) ([]cnf.Var, error) {
	e.stats.MaxSATCalls++
	// Persistent hard-part solver: ϕ is loaded once per synthesis; the
	// counterexample-specific X ↔ σ[X] units are passed as assumptions and
	// the per-query MaxSAT machinery lives in released clause groups.
	if e.candi == nil {
		s := e.newPhiSolver()
		e.candi = maxsat.NewIncremental(s)
		e.candiSolver = s // oracleCount reads its lifetime Solve counter
	}
	assumps := e.scrAssumps[:0]
	for _, x := range e.in.Univ {
		assumps = append(assumps, cnf.MkLit(x, sigma.x.Get(x) == cnf.True))
	}
	e.scrAssumps = assumps
	if cap(e.scrSoftLit) < len(e.in.Exist) {
		e.scrSoftLit = make([]cnf.Lit, len(e.in.Exist))
	}
	lits := e.scrSoftLit[:len(e.in.Exist)]
	softs := e.scrSofts[:0]
	softVar := e.scrSoftVar[:0]
	for i, y := range e.in.Exist {
		lits[i] = cnf.MkLit(y, sigma.yPrime.Get(y) == cnf.True)
		softs = append(softs, maxsat.Soft{Clause: cnf.Clause(lits[i : i+1 : i+1])})
		softVar = append(softVar, y)
	}
	e.scrSofts, e.scrSoftVar = softs, softVar
	res, err := e.candi.Solve(e.ctx, assumps, softs, maxsat.Options{
		ConflictBudget: e.opts.SATConflictBudget,
	})
	if err != nil {
		// The MaxSAT solver only errors on budget/cancellation exhaustion.
		if cerr := e.interrupted(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: FindCandi: %v", ErrBudget, err)
	}
	if res.Status != sat.Sat {
		// Hard part is ϕ ∧ X↔σ[X], known satisfiable from the extension
		// check; anything else is an internal inconsistency.
		return nil, fmt.Errorf("%w: FindCandi MaxSAT returned %v", ErrInternal, res.Status)
	}
	out := e.scrQueue[:0]
	for _, idx := range res.Falsified {
		out = append(out, softVar[idx])
	}
	// Also refresh σ[Y] with the MaxSAT model: it is a genuine completion
	// that agrees with the candidates except on the repair set, which makes
	// the Ŷ constraints in Gk consistent with the candidates.
	for _, y := range e.in.Exist {
		sigma.y.Set(y, res.Model.Get(y))
	}
	return out, nil
}
