package pedant

import (
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// The Padoa definition pass (the "define" phase): for each existential y,
// decide whether ϕ defines y uniquely as a function of its dependency set
// H(y) — by Padoa's theorem, exactly when
//
//	ϕ(X,Y) ∧ ϕ(X̂,Ŷ) ∧ (H(y) ↔ Ĥ(y)) ∧ y ∧ ¬ŷ
//
// is unsatisfiable. Instead of building that formula per existential (one
// full doubled copy each), the pass uses one incremental encoding shared by
// every query: ϕ plus a hatted copy ϕ̂ (every variable v renamed to v+N) are
// loaded once, and each universal x gets an equality selector eₓ with
// clauses (¬eₓ ∨ ¬x ∨ x̂)(¬eₓ ∨ x ∨ ¬x̂), so assuming eₓ forces x ↔ x̂.
// A query is then a plain assumption solve — {e_d : d ∈ H(y)} ∪ {y, ¬ŷ} —
// and a thousand queries cost one formula load per pooled solver.
//
// The per-existential queries are independent, so they run through
// oracle.ForEach (Options.DefineWorkers), drawing solvers from an
// oracle.Pool sized to the worker count. Workers only record per-index
// verdicts; the count into Stats.DefinedVars happens serially afterwards,
// so the result is bit-identical for every worker count. Each query's
// SAT/UNSAT answer is a semantic fact; only budget exhaustion (ErrBudget)
// can depend on which pooled solver — with which learnt-clause warmth —
// served the query, and that can never flip a verdict, only fail the run. A
// worker panic is recovered by ForEach and fails the pass with ErrInternal.

// padoaSel returns the equality-selector variable of the i-th universal:
// selectors live above the two ϕ copies (vars 1..N original, N+1..2N
// hatted).
func padoaSel(numVars, i int) cnf.Var {
	return cnf.Var(2*numVars + i + 1)
}

// newPadoaOracle builds one pooled solver: ϕ, the hatted copy, and the
// universal equality selectors.
func (e *engine) newPadoaOracle() *sat.Solver {
	n := e.in.Matrix.NumVars
	f := e.in.Matrix.Clone()
	for _, c := range e.in.Matrix.Clauses {
		nc := make([]cnf.Lit, len(c))
		for i, l := range c {
			nc[i] = cnf.MkLit(l.Var()+cnf.Var(n), l.IsPos())
		}
		f.AddClause(nc...)
	}
	for i, x := range e.in.Univ {
		ev := padoaSel(n, i)
		f.AddClause(cnf.NegLit(ev), cnf.NegLit(x), cnf.PosLit(x+cnf.Var(n)))
		f.AddClause(cnf.NegLit(ev), cnf.PosLit(x), cnf.NegLit(x+cnf.Var(n)))
	}
	s := sat.New()
	s.SetConflictBudget(e.opts.SATConflictBudget)
	s.SetContext(e.ctx)
	s.AddFormula(f)
	return s
}

// isDefined runs one existential's Padoa query on a pooled solver, checked
// out through With so a panicking query evicts the solver instead of
// recycling it.
func (e *engine) isDefined(y cnf.Var, pool *oracle.Pool) (bool, error) {
	n := e.in.Matrix.NumVars
	deps := e.in.DepSet(y)
	assumps := make([]cnf.Lit, 0, len(deps)+2)
	for _, d := range deps {
		assumps = append(assumps, cnf.PosLit(padoaSel(n, e.xPos[d])))
	}
	assumps = append(assumps, cnf.PosLit(y), cnf.NegLit(y+cnf.Var(n)))
	var defined bool
	var err error
	pool.With(func(s *sat.Solver) {
		switch s.SolveAssume(assumps) {
		case sat.Unsat:
			defined = true
		case sat.Unknown:
			err = s.UnknownError(ErrBudget, "definition check")
		}
	})
	return defined, err
}

// countDefined runs the Padoa check per existential for statistics through
// oracle.ForEach over pooled incremental oracles; see the file comment.
func (e *engine) countDefined() error {
	exist := e.in.Exist
	if len(exist) == 0 {
		return nil
	}
	workers := oracle.Workers(e.opts.DefineWorkers, len(exist))
	pool := oracle.NewPool(workers, e.newPadoaOracle)
	defined := make([]bool, len(exist))
	err := oracle.ForEach(e.ctx, workers, len(exist), func(i int) (err error) {
		defined[i], err = e.isDefined(exist[i], pool)
		return err
	})
	switch {
	case err == nil:
	case errors.Is(err, oracle.ErrPanic):
		return fmt.Errorf("%w: define worker: %w", ErrInternal, err)
	case errors.Is(err, ErrBudget):
		return err
	default: // ForEach saw the context stop between queries
		return fmt.Errorf("%w: interrupted: %w", ErrBudget, err)
	}
	for _, d := range defined {
		if d {
			e.stats.DefinedVars++
		}
	}
	return nil
}
