package core

import (
	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// The preprocess phase performs the semantic preprocessing inherited from
// the Manthan lineage: constant and unate detection.
//
//   - Constant: if ϕ ∧ yi is UNSAT then fi = 0; if ϕ ∧ ¬yi is UNSAT, fi = 1.
//   - Positive unate: if ϕ[yi:=0] ∧ ¬ϕ[yi:=1] is UNSAT then setting yi to 1
//     never hurts, so fi = 1 (symmetrically fi = 0 for negative unate).
//     Constants have empty support, so they trivially satisfy any Henkin
//     dependency set.
//
// The paper also extracts unique definitions (Padoa's theorem) with the
// interpolation-based UNIQUE tool; this reproduction leaves defined
// variables to the learn+repair loop, where they converge quickly because
// every sample agrees with the unique definition.
//
// The query chain of one existential is independent of every other's, so
// the chains run through oracle.ForEach (Options.PreprocWorkers): constant
// checks borrow ϕ-loaded solvers from an oracle.Pool sized to the worker
// count (built once, checked out per query), and the unate checks borrow
// from a second pool loaded with one shared assumption-driven check formula
// — ϕ(X,Y) ∧ ¬ϕ(X,Y″) with per-existential equality selectors — built once
// per run instead of re-encoding cofactors into a fresh solver per check.
// Workers only compute; the results are merged — setFunc, the fixed set, the
// stats counters — strictly in declaration order, so the outcome is
// bit-identical for every worker count (TestParallelPreprocessDeterministic).

// preprocKind classifies the outcome of one existential's check chain.
type preprocKind int

const (
	preprocNone       preprocKind = iota
	preprocConstFalse             // ϕ ∧ y UNSAT → f = 0
	preprocConstTrue              // ϕ ∧ ¬y UNSAT → f = 1
	preprocUnateTrue              // positive unate → f = 1
	preprocUnateFalse             // negative unate → f = 0
)

// preprocResult is one worker's verdict for one existential.
type preprocResult struct {
	kind   preprocKind
	oracle int64 // solver calls issued for this chain
	err    error
}

// preprocess runs the preprocess phase; see the comment above.
func (e *Engine) preprocess() error {
	// Syntactic unate fast path: a y that never occurs negated in the CNF is
	// positive unate (flipping it to 1 can only satisfy more clauses), and
	// symmetrically for never-positive occurrences.
	posOcc := make(map[cnf.Var]bool)
	negOcc := make(map[cnf.Var]bool)
	for _, c := range e.in.Matrix.Clauses {
		for _, l := range c {
			if l.IsPos() {
				posOcc[l.Var()] = true
			} else {
				negOcc[l.Var()] = true
			}
		}
	}
	for _, y := range e.in.Exist {
		switch {
		case !negOcc[y]:
			e.setFunc(y, e.b.True())
			e.fixed[y] = true
			e.stats.UnatesDetected++
		case !posOcc[y]:
			e.setFunc(y, e.b.False())
			e.fixed[y] = true
			e.stats.UnatesDetected++
		}
	}

	todo := make([]cnf.Var, 0, len(e.in.Exist))
	for _, y := range e.in.Exist {
		if !e.fixed[y] {
			todo = append(todo, y)
		}
	}
	if len(todo) == 0 {
		return nil
	}

	workers := oracle.Workers(e.opts.PreprocWorkers, len(todo))
	pool := &preprocOracles{
		consts: oracle.NewPool(workers, e.newPhiSolver),
		unate:  e.buildUnateOracle(workers),
	}
	results := make([]preprocResult, len(todo))
	err := oracle.ForEach(e.ctx, workers, len(todo), func(i int) error {
		results[i] = e.preprocessOne(todo[i], pool)
		return results[i].err
	})
	e.stats.PreprocSolversBuilt = pool.consts.Built()
	if err != nil {
		return e.workerErr("preprocess", err)
	}

	// Deterministic merge in declaration order: all engine mutation happens
	// here, serially.
	for i, y := range todo {
		r := results[i]
		e.extraOracle += r.oracle
		switch r.kind {
		case preprocConstFalse:
			e.setFunc(y, e.b.False())
			e.fixed[y] = true
			e.stats.ConstantsDetected++
		case preprocConstTrue:
			e.setFunc(y, e.b.True())
			e.fixed[y] = true
			e.stats.ConstantsDetected++
		case preprocUnateTrue:
			e.setFunc(y, e.b.True())
			e.fixed[y] = true
			e.stats.UnatesDetected++
		case preprocUnateFalse:
			e.setFunc(y, e.b.False())
			e.fixed[y] = true
			e.stats.UnatesDetected++
		}
	}
	e.tracef("preprocess: %d constants, %d unates (%d workers, %d pooled solvers)",
		e.stats.ConstantsDetected, e.stats.UnatesDetected, workers, e.stats.PreprocSolversBuilt)
	return nil
}

// preprocOracles bundles the two preprocessing solver pools handed to the
// workers: ϕ-loaded solvers for the constant checks plus the shared unate
// check oracle. Both pools are sized to the worker count, so concurrent
// checkouts never block on each other.
type preprocOracles struct {
	consts *oracle.Pool
	unate  *unateOracle
}

// preprocessOne runs one existential's check chain — constant, then unate —
// reading the engine strictly read-only (safe from worker goroutines); all
// mutation is deferred to the merge. Each pooled solver is held only for
// its own queries, and other workers' checkouts interleave freely.
func (e *Engine) preprocessOne(y cnf.Var, pool *preprocOracles) preprocResult {
	r := preprocResult{}
	done := false
	pool.consts.With(func(s *sat.Solver) {
		st := s.SolveAssume([]cnf.Lit{cnf.PosLit(y)})
		r.oracle++
		if st == sat.Unknown {
			r.err = e.oracleUnknown(s, "preprocessing")
			done = true
			return
		}
		if st == sat.Unsat {
			r.kind = preprocConstFalse
			done = true
			return
		}
		st = s.SolveAssume([]cnf.Lit{cnf.NegLit(y)})
		r.oracle++
		if st == sat.Unknown {
			r.err = e.oracleUnknown(s, "preprocessing")
			done = true
			return
		}
		if st == sat.Unsat {
			r.kind = preprocConstTrue
			done = true
		}
	})
	if done {
		return r
	}
	// Unate checks (assumption queries on the shared check formula).
	pos, err := e.isUnate(pool.unate, y, true)
	r.oracle++
	if err != nil {
		r.err = err
		return r
	}
	if pos {
		r.kind = preprocUnateTrue
		return r
	}
	neg, err := e.isUnate(pool.unate, y, false)
	r.oracle++
	if err != nil {
		r.err = err
		return r
	}
	if neg {
		r.kind = preprocUnateFalse
	}
	return r
}

// unateOracle is the shared machinery of every semantic unate check: one
// formula ϕ(X,Y) ∧ ¬ϕ(X,Y″) — Y″ a primed copy of the existentials, X
// shared — with a per-existential equality selector t_y → (y ↔ y″). It is
// built once per run and loaded into pooled solvers; a single check is then
// a pure assumption query, where the old implementation re-encoded two
// cofactors plus a Tseitin negation into a fresh solver per check.
type unateOracle struct {
	prime map[cnf.Var]cnf.Var // y → y″
	sel   map[cnf.Var]cnf.Var // y → t_y
	pool  *oracle.Pool
}

// buildUnateOracle constructs the shared unate check formula and its solver
// pool (sized to the preprocessing worker count; solvers build lazily on
// first checkout).
func (e *Engine) buildUnateOracle(workers int) *unateOracle {
	f := cnf.New(e.in.Matrix.NumVars)
	for _, c := range e.in.Matrix.Clauses {
		f.AddClause(c...)
	}
	u := &unateOracle{
		prime: make(map[cnf.Var]cnf.Var, len(e.in.Exist)),
		sel:   make(map[cnf.Var]cnf.Var, len(e.in.Exist)),
	}
	for _, y := range e.in.Exist {
		u.prime[y] = f.NewVar()
	}
	// ¬ϕ(X,Y″): rename existentials in the matrix to Y″, then negate.
	renamed := cnf.New(f.NumVars)
	nc := make([]cnf.Lit, 0, 8)
	for _, c := range e.in.Matrix.Clauses {
		nc = nc[:0]
		for _, l := range c {
			if p, ok := u.prime[l.Var()]; ok {
				nc = append(nc, cnf.MkLit(p, l.IsPos()))
			} else {
				nc = append(nc, l)
			}
		}
		renamed.AddClause(nc...)
	}
	renamed.NumVars = f.NumVars
	renamed.NegationInto(f)
	for _, y := range e.in.Exist {
		t := f.NewVar()
		u.sel[y] = t
		f.AddClause(cnf.NegLit(t), cnf.NegLit(y), cnf.PosLit(u.prime[y]))
		f.AddClause(cnf.NegLit(t), cnf.PosLit(y), cnf.NegLit(u.prime[y]))
	}
	u.pool = oracle.NewPool(workers, func() *sat.Solver {
		s := e.newSolver()
		s.AddFormula(f)
		return s
	})
	return u
}

// isUnate checks semantic unateness of y in ϕ: positive unate when
// ϕ[y:=0] ∧ ¬ϕ[y:=1] is UNSAT; negative unate with the cofactors swapped.
// On the shared formula the cofactors become assumptions — equality
// selectors tie every OTHER existential to its primed copy, and y itself is
// split (y fixed low in the positive copy, y″ fixed high in the negated
// one). Read-only on the engine, safe from worker goroutines.
func (e *Engine) isUnate(u *unateOracle, y cnf.Var, positive bool) (bool, error) {
	assumps := make([]cnf.Lit, 0, len(e.in.Exist)+1)
	for _, yj := range e.in.Exist {
		if yj != y {
			assumps = append(assumps, cnf.PosLit(u.sel[yj]))
		}
	}
	assumps = append(assumps, cnf.MkLit(y, !positive), cnf.MkLit(u.prime[y], positive))
	var unate bool
	var err error
	u.pool.With(func(s *sat.Solver) {
		switch st := s.SolveAssume(assumps); st {
		case sat.Unsat:
			unate = true
		case sat.Sat:
			unate = false
		default:
			err = e.oracleUnknown(s, "unate check")
		}
	})
	return unate, err
}
