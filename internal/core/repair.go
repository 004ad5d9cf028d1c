package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/maxsat"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// repairSlots fixes the number of batched-verification slot solvers. It is a
// constant rather than a function of Options.VerifyWorkers on purpose:
// probe i of a batch always runs on slot i mod repairSlots, and each slot
// executes its probes sequentially in probe-index order, so every slot
// solver sees a query sequence determined by the queue alone. UNSAT cores
// and models — unlike plain SAT/UNSAT facts — are artifacts of solver
// history, so this binding is what makes the repairs bit-identical across
// scheduling and worker counts; VerifyWorkers only throttles how many slots
// run at once. The slot solvers are ϕ-loaded, built on the first batch that
// needs them, and live for the whole run.
const repairSlots = 4

// repairProbe is one Gk query of a repair batch: inputs (yk, assumps, Ŷ)
// are prepared serially at batch construction, outputs (status plus UNSAT
// core or model values) are filled on a solver, and the serial merge
// consumes them in queue order. All slices are engine-owned buffers reused
// across batches.
type repairProbe struct {
	yk      cnf.Var
	assumps []cnf.Lit
	yHat    []cnf.Var
	status  sat.Status
	core    []cnf.Lit   // Unsat: failed assumptions (AppendCore)
	rho     []cnf.Value // Sat: model values of e.in.Exist, declaration order
	err     error
}

// repair is Algorithm 3 (RepairHkF): given the counterexample σ, localize
// faulty candidates with a MaxSAT query and repair each with an
// UnsatCore-guided strengthening or weakening. It reports whether any
// candidate changed (no change ⇒ the incompleteness case).
//
// The queue is consumed in maximal batches of consecutive, non-fixed,
// pairwise-independent candidates (see buildProbes for the independence
// criterion). A singleton batch — the common case when candidates are
// entangled through their Ŷ sets — solves on the warm persistent ϕ-solver
// exactly as the serial algorithm always has; a multi-candidate batch fans
// its probes out over the slot solvers. Either way mergeProbes then
// replays the answers strictly in queue order, performing all engine
// mutation (repairs, blame appends, the line-18 σ[yk] realignment)
// serially, so the batched loop is observationally a serial loop.
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
	for qi := 0; qi < len(ind); {
		if e.fixed[ind[qi]] {
			qi++ // preprocessed constants are semantically safe as-is
			continue
		}
		n := e.buildProbes(sigma, ind, qi)
		if n == 1 {
			e.runProbe(e.phiSolver, &e.probes[0])
		} else {
			if err := e.runBatch(n); err != nil {
				return false, err
			}
			e.stats.VerifyBatches++
			e.stats.BatchedProbes += n
		}
		if err := e.mergeProbes(sigma, &ind, n, &repairedAny); err != nil {
			return false, err
		}
		qi += n
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

// buildProbes prepares probes for the maximal batch of consecutive
// non-fixed queue entries starting at qi that are independent of every
// earlier batch member, and returns the batch size (≥ 1). Member b is
// independent when no earlier member a appears in Ŷ(b): a's repair only
// feeds back into later Gk queries through the line-18 rewrite of σ[y_a],
// and b's Gk reads σ[Y] exactly on Ŷ(b) (σ[X] and σ[Y′] are fixed for the
// whole round). The check is one-directional because the merge replays
// answers in queue order — b's repair happening "before" a's probe is the
// serial order anyway. Each probe's Gk assumptions (yk ↔ σ[y′k], Hk ↔
// σ[Hk], Ŷ ↔ σ[Ŷ]) are snapshotted here, so later σ rewrites cannot leak
// into already-built probes.
func (e *Engine) buildProbes(sigma *counterexample, ind []cnf.Var, qi int) int {
	n := 0
	for qj := qi; qj < len(ind); qj++ {
		yk := ind[qj]
		if qj > qi && e.fixed[yk] {
			break
		}
		if n == len(e.probes) {
			e.probes = append(e.probes, repairProbe{})
		}
		p := &e.probes[n]
		p.yHat = e.appendYHat(p.yHat[:0], yk)
		if qj > qi {
			dependent := false
			for _, yj := range p.yHat {
				if e.scrMark[yj] { // an earlier batch member
					dependent = true
					break
				}
			}
			if dependent {
				break
			}
		}
		p.yk = yk
		p.status = sat.Unknown
		p.err = nil
		p.assumps = p.assumps[:0]
		p.assumps = append(p.assumps, cnf.MkLit(yk, sigma.yPrime.Get(yk) == cnf.True))
		for _, x := range e.in.DepSet(yk) {
			p.assumps = append(p.assumps, cnf.MkLit(x, sigma.x.Get(x) == cnf.True))
		}
		for _, yj := range p.yHat {
			p.assumps = append(p.assumps, cnf.MkLit(yj, sigma.y.Get(yj) == cnf.True))
		}
		e.scrMark[yk] = true
		n++
	}
	for i := 0; i < n; i++ {
		e.scrMark[e.probes[i].yk] = false
	}
	return n
}

// runProbe decides one Gk query on s and records the repair-relevant
// artifacts: the failed-assumption core on Unsat, the existential model
// values on Sat, a classified error on Unknown.
func (e *Engine) runProbe(s *sat.Solver, p *repairProbe) {
	switch st := s.SolveAssume(p.assumps); st {
	case sat.Unsat:
		p.status = sat.Unsat
		p.core = s.AppendCore(p.core[:0])
	case sat.Sat:
		p.status = sat.Sat
		p.rho = p.rho[:0]
		for _, yt := range e.in.Exist {
			p.rho = append(p.rho, s.ModelValue(yt))
		}
	default:
		p.status = sat.Unknown
		p.err = e.oracleUnknown(s, "repair SAT call")
	}
}

// runBatch executes probes [0, n) on the slot solvers: probe i belongs to
// slot i mod repairSlots, and oracle.ForEach hands whole slots to workers,
// each running its slot's probes sequentially in index order. The worker
// count (VerifyWorkers, default NumCPU) therefore affects only how many
// slots solve concurrently, never which solver answers which query. Probe
// failures (Unknown) are left for the merge; a worker panic fails the
// batch, and with it the run, so no slot solver is queried after a panic
// left it in an arbitrary state.
func (e *Engine) runBatch(n int) error {
	for s := range e.slotIdxs {
		e.slotIdxs[s] = e.slotIdxs[s][:0]
	}
	for i := 0; i < n; i++ {
		s := i % repairSlots
		e.slotIdxs[s] = append(e.slotIdxs[s], i)
	}
	active := min(n, repairSlots)
	for s := 0; s < active; s++ {
		if e.slotSolvers[s] == nil {
			e.slotSolvers[s] = e.newPhiSolver()
			e.stats.RepairSolversBuilt++
		}
	}
	e.extraOracle += int64(n)
	err := oracle.ForEach(e.ctx, e.opts.VerifyWorkers, active, func(s int) error {
		for _, i := range e.slotIdxs[s] {
			e.runProbe(e.slotSolvers[s], &e.probes[i])
		}
		return nil
	})
	if err != nil {
		return e.workerErr("repair probe", err)
	}
	return nil
}

// mergeProbes replays probes [0, n) strictly in queue order, applying the
// serial algorithm's per-candidate step to each answer: core-guided
// strengthening/weakening on Unsat (lines 11-13), blame on Sat (lines
// 15-17) followed, whenever σ[yk] ≠ σ′[yk], by the row repair from Gk with
// all of X pinned (patchRow), and the line-18 realignment of σ[yk] with the
// (possibly just repaired) candidate's output. All engine mutation of the
// repair loop happens here, on the calling goroutine, and so does
// patchRow's query, on the ϕ-solver, after a batch's probes have run.
func (e *Engine) mergeProbes(sigma *counterexample, ind *[]cnf.Var, n int, repairedAny *bool) error {
	for pi := 0; pi < n; pi++ {
		p := &e.probes[pi]
		yk := p.yk
		switch p.status {
		case sat.Unsat:
			// Lines 11-13: repair from the UNSAT core.
			e.stats.CoreCalls++
			beta := p.core[:0]
			for _, l := range p.core {
				if l.Var() != yk {
					beta = append(beta, l)
				}
			}
			if len(beta) == 0 {
				// Core contains only yk itself: the dependencies alone force
				// the flip; repair with the constant flip on this point is
				// impossible without literals — no progress for yk.
				break
			}
			if e.applyBeta(yk, beta, sigma) {
				*repairedAny = true
				e.stats.CandidatesRepaired++
			}
		case sat.Sat:
			// Lines 15-17: blame other candidates whose output disagrees
			// with the model ρ of Gk.
			for _, yj := range p.yHat {
				e.scrMark[yj] = true
			}
			for ti, yt := range e.in.Exist {
				if yt == yk || e.scrMark[yt] || e.scrInQueue[yt] {
					continue
				}
				if (p.rho[ti] == cnf.True) != (sigma.yPrime.Get(yt) == cnf.True) {
					*ind = append(*ind, yt)
					e.scrInQueue[yt] = true
				}
			}
			for _, yj := range p.yHat {
				e.scrMark[yj] = false
			}
			if sigma.y.Get(yk) != sigma.yPrime.Get(yk) {
				patched, err := e.patchRow(p, sigma)
				if err != nil {
					return err
				}
				*repairedAny = *repairedAny || patched
			}
		default:
			if cerr := e.interrupted(); cerr != nil {
				return cerr
			}
			if p.err != nil {
				return p.err
			}
			return fmt.Errorf("%w: repair probe for y%d returned Unknown", ErrBudget, yk)
		}
		// Line 18: align σ[yk] with the candidate's output at σ. The output
		// must be recomputed from the CURRENT function: on the UNSAT branch
		// the repair just flipped fk's output at σ (strengthening forces 0,
		// weakening forces 1), so the pre-repair σ[y′k] is stale, and later
		// queued candidates read σ[yk] through their Ŷ assumptions.
		sigma.y.Set(yk, cnf.BoolValue(e.evalAtSigma(e.funcs[yk], sigma)))
	}
	return nil
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
// patchRow poses Gk with the rest of X pinned too, ϕ ∧ (yk ↔ σ′[yk]) ∧
// (X ↔ σ[X]) ∧ (Ŷ ↔ σ[Ŷ]), on the ϕ-solver. On SAT it patches nothing. On
// UNSAT it drops yk and the universals outside Hk from the failed-assumption
// core and applies the rest, a cube β over Hk and Ŷ, as the Unsat branch
// applies its β; an empty β patches fk to the constant σ[yk]. This is sound
// for the same reason as that β: the dropped literals are universals outside
// Hk, so every Hk row matching β reaches an X that agrees with the core, and
// there any Henkin vector of a True instance gives fk the value σ[yk]
// wherever β's Ŷ literals hold. Each (yk, σ[Hk]) pair keeps the direction of
// its first patch for the whole run; a patch the other way is an
// oscillation and ends the run as ErrIncomplete. patchRow reports whether
// fk changed.
func (e *Engine) patchRow(p *repairProbe, sigma *counterexample) (bool, error) {
	yk := p.yk
	row := p.assumps[1 : 1+len(e.in.DepSet(yk))] // Hk ↔ σ[Hk]; see buildProbes
	assumps := append(e.scrAssumps[:0], p.assumps[0])
	for _, x := range e.in.Univ {
		assumps = append(assumps, cnf.MkLit(x, sigma.x.Get(x) == cnf.True))
	}
	assumps = append(assumps, p.assumps[1+len(row):]...) // Ŷ ↔ σ[Ŷ]
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
