package pedant

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

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
// The per-existential queries are independent, so they run on a worker pool
// (Options.DefineWorkers) drawing solvers from an oracle.Pool sized to the
// worker count. Workers only record per-index verdicts; the merge into
// Stats.DefinedVars happens serially in declaration order, so the result is
// bit-identical for every worker count. Each query's SAT/UNSAT answer is a
// semantic fact; only budget exhaustion (ErrBudget) can depend on which
// pooled solver — with which learnt-clause warmth — served the query, and
// that can never flip a verdict, only fail the run.

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

// padoaResult is one worker's verdict for one existential.
type padoaResult struct {
	defined bool
	err     error
}

// isDefinedSafe runs isDefined under panic isolation: a recover() on the
// caller's goroutine cannot catch a panic raised inside a worker goroutine,
// so each worker converts its own panics into an ErrInternal-classified
// error that the merge loop surfaces like any other query failure.
func (e *engine) isDefinedSafe(y cnf.Var, pool *oracle.Pool) (r padoaResult) {
	defer func() {
		if p := recover(); p != nil {
			r = padoaResult{err: fmt.Errorf("%w: define worker for y%d panicked: %v\n%s", ErrInternal, y, p, debug.Stack())}
		}
	}()
	return e.isDefined(y, pool)
}

// isDefined runs one existential's Padoa query on a pooled solver, checked
// out through With so a panicking query evicts the solver instead of
// recycling it.
func (e *engine) isDefined(y cnf.Var, pool *oracle.Pool) padoaResult {
	n := e.in.Matrix.NumVars
	deps := e.in.DepSet(y)
	assumps := make([]cnf.Lit, 0, len(deps)+2)
	for _, d := range deps {
		assumps = append(assumps, cnf.PosLit(padoaSel(n, e.xPos[d])))
	}
	assumps = append(assumps, cnf.PosLit(y), cnf.NegLit(y+cnf.Var(n)))
	var r padoaResult
	pool.With(func(s *sat.Solver) {
		switch s.SolveAssume(assumps) {
		case sat.Unsat:
			r = padoaResult{defined: true}
		case sat.Unknown:
			r = padoaResult{err: s.UnknownError(ErrBudget, "definition check")}
		}
	})
	return r
}

// countDefined runs the Padoa check per existential for statistics, on a
// worker pool over pooled incremental oracles; see the file comment.
func (e *engine) countDefined() error {
	exist := e.in.Exist
	if len(exist) == 0 {
		return nil
	}
	workers := e.opts.DefineWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(exist) {
		workers = len(exist)
	}
	pool := oracle.NewPool(workers, e.newPadoaOracle)
	results := make([]padoaResult, len(exist))
	if workers <= 1 {
		for i, y := range exist {
			if err := e.ctx.Err(); err != nil {
				results[i] = padoaResult{err: fmt.Errorf("%w: interrupted: %w", ErrBudget, err)}
				break
			}
			results[i] = e.isDefinedSafe(y, pool)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(exist) {
						return
					}
					if err := e.ctx.Err(); err != nil {
						results[i] = padoaResult{err: fmt.Errorf("%w: interrupted: %w", ErrBudget, err)}
						return
					}
					results[i] = e.isDefinedSafe(exist[i], pool)
				}
			}()
		}
		wg.Wait()
	}
	e.stats.SolversEvicted = pool.Evicted()
	// Deterministic merge in declaration order. Indices are claimed in
	// increasing order, so any unprocessed suffix left by a canceled run
	// sits behind an errored slot and is never merged.
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		if r.defined {
			e.stats.DefinedVars++
		}
	}
	return nil
}
