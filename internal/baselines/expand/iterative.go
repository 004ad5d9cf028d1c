package expand

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/sat"
)

// SolveIterative decides the DQBF by repeated single-variable universal
// expansion — the literal HQS elimination loop (Gitina et al., DATE 2015):
// one universal at a time is expanded with dqbf.ExpandUniversal until none
// remain, the resulting propositional formula is handed to the SAT solver,
// and Henkin functions are recovered by folding the expansion maps back with
// ite(x, f¹, f⁰) (Wimmer et al., ATVA 2016: functions for ϕ(i-1) from
// ϕ(i)).
//
// Semantically it matches Solve; the intermediate instances materialize the
// transformation sequence, so memory grows with the product of branch
// splits. Kept as a faithful model of elimination-based solving and as a
// cross-check for the direct table construction.
func SolveIterative(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxUnivVars == 0 {
		opts.MaxUnivVars = 18
	}
	if opts.MaxTableCells == 0 {
		opts.MaxTableCells = 1 << 20
	}
	if len(in.Univ) > opts.MaxUnivVars {
		return nil, fmt.Errorf("%w: %d universal variables (limit %d)", ErrTooLarge, len(in.Univ), opts.MaxUnivVars)
	}
	cur := in
	var maps []*dqbf.ExpandMap
	stats := Stats{}
	rec := backend.NewPhaseRecorder()
	rec.Begin(backend.PhaseExpand)
	for len(cur.Univ) > 0 {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: expansion interrupted: %w", ErrBudget, ctx.Err())
		}
		if len(cur.Exist) > opts.MaxTableCells {
			return nil, fmt.Errorf("%w: %d existential copies (limit %d)", ErrTooLarge, len(cur.Exist), opts.MaxTableCells)
		}
		// Heuristic from HQS: expand the universal on which the most
		// existentials depend last; here, pick the one minimizing the number
		// of split copies this step.
		x := pickUniversal(cur)
		next, em, err := dqbf.ExpandUniversal(cur, x)
		if errors.Is(err, dqbf.ErrExpansionFalse) {
			return nil, ErrFalse
		}
		if err != nil {
			return nil, err
		}
		maps = append(maps, em)
		cur = next
		stats.Rows++
	}
	stats.TableCells = len(cur.Exist)
	stats.ClausesOut = len(cur.Matrix.Clauses)

	// Propositional endgame: every remaining variable is existential.
	rec.Begin(backend.PhaseSolve)
	s := sat.New()
	s.AddFormula(cur.Matrix)
	if opts.SATConflictBudget > 0 {
		s.SetConflictBudget(opts.SATConflictBudget)
	}
	s.SetContext(ctx)
	st := s.Solve()
	rec.AddOracle(s.Stats().Solves)
	switch st {
	case sat.Unsat:
		return nil, ErrFalse
	case sat.Unknown:
		return nil, s.UnknownError(ErrBudget, "final SAT call")
	}
	m := s.Model()
	stats.SATConfl = s.Stats().Conflicts

	// Constants for the fully-expanded existentials, then fold back.
	rec.Begin(backend.PhaseExtract)
	fv := dqbf.NewFuncVector(nil)
	for _, y := range cur.Exist {
		fv.Funcs[y] = fv.B.Const(m.Get(y) == cnf.True)
	}
	for i := len(maps) - 1; i >= 0; i-- {
		fv = dqbf.RecoverExpansion(maps[i], fv)
	}
	stats.SynthesisNs = time.Since(start).Nanoseconds()
	stats.Phases = rec.Phases()
	return &Result{Vector: fv, Stats: stats}, nil
}

// pickUniversal chooses the expansion variable splitting the fewest
// existentials (ties broken by variable order).
func pickUniversal(in *dqbf.Instance) cnf.Var {
	best := in.Univ[0]
	bestCost := 1 << 30
	for _, x := range in.Univ {
		cost := 0
		for _, y := range in.Exist {
			if in.DepContains(y, x) {
				cost++
			}
		}
		if cost < bestCost {
			best, bestCost = x, cost
		}
	}
	return best
}
