// Package expand implements an elimination-based DQBF solver and Henkin
// synthesizer in the spirit of HQS2: it removes the universal quantifiers by
// full universal expansion and solves the resulting propositional formula.
//
// For each existential yi with dependency set Hi, a function-table variable
// t[i][α] is introduced for every assignment α of Hi. Every assignment β of
// the whole universal block X instantiates each matrix clause: universal
// literals evaluate to constants and each yi literal is replaced by
// t[i][β↾Hi]. The instantiated CNF is satisfiable iff the DQBF is True, and
// any model is literally the Henkin function vector, read back as truth
// tables.
//
// Like HQS2, the approach is exact — complete for both True and False — and
// excels when the universal block (and the dependency sets) are small, while
// blowing up exponentially as |X| grows. The Expand/Manthan3 comparison in
// the benchmark harness reproduces exactly this complementarity.
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

// Sentinel errors.
var (
	// ErrFalse means the instance is False.
	ErrFalse = errors.New("expand: instance is False")
	// ErrTooLarge means the expansion exceeds the configured limits.
	ErrTooLarge = errors.New("expand: expansion limits exceeded")
	// ErrBudget means the SAT search exhausted its budget.
	ErrBudget = errors.New("expand: budget exhausted")
)

// Options bounds the expansion.
type Options struct {
	// MaxUnivVars caps |X| (default 18): expansion enumerates 2^|X| rows.
	MaxUnivVars int
	// MaxTableCells caps Σ 2^|Hi| (default 1<<20).
	MaxTableCells int
	// SATConflictBudget bounds the final SAT call (default unlimited).
	SATConflictBudget int64
}

// Stats reports the expansion size.
type Stats struct {
	Rows        int // universal assignments instantiated
	TableCells  int // function-table variables
	ClausesOut  int // instantiated clauses after dropping satisfied ones
	SATConfl    int64
	SynthesisNs int64
	// Phases is the per-phase telemetry (expand → solve → extract) in the
	// shared backend vocabulary.
	Phases []backend.PhaseStat
}

// Result is a successful synthesis.
type Result struct {
	Vector *dqbf.FuncVector
	Stats  Stats
}

// Solve decides the DQBF and synthesizes Henkin functions for True
// instances. Cancellation of ctx aborts the expansion loop and the final
// SAT call promptly with ErrBudget (the ctx error stays in the chain).
func Solve(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error) {
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
	nX := len(in.Univ)
	if nX > opts.MaxUnivVars {
		return nil, fmt.Errorf("%w: %d universal variables (limit %d)", ErrTooLarge, nX, opts.MaxUnivVars)
	}
	cells := 0
	for _, y := range in.Exist {
		cells += 1 << uint(len(in.DepSet(y)))
		if cells > opts.MaxTableCells {
			return nil, fmt.Errorf("%w: %d table cells (limit %d)", ErrTooLarge, cells, opts.MaxTableCells)
		}
	}

	// Allocate table variables.
	out := cnf.New(0)
	tableVar := make(map[cnf.Var][]cnf.Var, len(in.Exist)) // y → vars per Hi row
	for _, y := range in.Exist {
		rows := 1 << uint(len(in.DepSet(y)))
		vs := out.NewVars(rows)
		tableVar[y] = vs
	}

	// Positions of universal variables for fast projection.
	xPos := make(map[cnf.Var]int, nX)
	for i, x := range in.Univ {
		xPos[x] = i
	}

	stats := Stats{TableCells: cells}
	rec := backend.NewPhaseRecorder()
	rec.Begin(backend.PhaseExpand)
	seenClause := make(map[string]bool)
	for beta := 0; beta < 1<<uint(nX); beta++ {
		if beta&1023 == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("%w: expansion interrupted: %w", ErrBudget, ctx.Err())
		}
		stats.Rows++
		for _, c := range in.Matrix.Clauses {
			inst := make([]cnf.Lit, 0, len(c))
			satisfied := false
			for _, l := range c {
				if p, isX := xPos[l.Var()]; isX {
					bit := beta&(1<<uint(p)) != 0
					if bit == l.IsPos() {
						satisfied = true
						break
					}
					continue // literal false under β: drop
				}
				// Existential literal: map to the table cell for β↾Hi.
				y := l.Var()
				deps := in.DepSet(y)
				idx := 0
				for k, d := range deps {
					if beta&(1<<uint(xPos[d])) != 0 {
						idx |= 1 << uint(k)
					}
				}
				inst = append(inst, cnf.MkLit(tableVar[y][idx], l.IsPos()))
			}
			if satisfied {
				continue
			}
			if len(inst) == 0 {
				// Instantiated empty clause: some β falsifies ϕ regardless
				// of existential choices.
				return nil, ErrFalse
			}
			key := cnf.Clause(inst).String()
			if seenClause[key] {
				continue
			}
			seenClause[key] = true
			out.AddClause(inst...)
		}
	}
	stats.ClausesOut = len(out.Clauses)

	rec.Begin(backend.PhaseSolve)
	s := sat.New()
	s.AddFormula(out)
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

	rec.Begin(backend.PhaseExtract)
	fv := dqbf.NewFuncVector(nil)
	for _, y := range in.Exist {
		deps := in.DepSet(y)
		rows := tableVar[y]
		table := make([]bool, len(rows))
		for i, tv := range rows {
			table[i] = m.Get(tv) == cnf.True
		}
		f, err := fv.B.FromTruthTable(deps, table)
		if err != nil {
			return nil, fmt.Errorf("expand: table for %d: %w", y, err)
		}
		fv.Funcs[y] = f
	}
	stats.SynthesisNs = time.Since(start).Nanoseconds()
	stats.Phases = rec.Phases()
	return &Result{Vector: fv, Stats: stats}, nil
}
