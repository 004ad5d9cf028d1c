// Package cegar implements a counterexample-guided abstraction refinement
// (CEGAR) solver and Skolem-function synthesizer for the 2-QBF special case
// ∀X ∃Y . ϕ(X,Y) — the setting of the paper's related work on Skolem
// synthesis (Janota-style CEGAR; paper §3 references [3,4,12]). Manthan3
// generalizes this setting to explicit Henkin dependencies; this package
// covers the classical corner where every dependency set is the full
// universal block (dqbf.Instance.IsSkolem).
//
// The loop maintains an abstraction SAT instance over X that searches for an
// adversary assignment not yet covered by any collected move:
//
//  1. ask the abstraction for a candidate α (UNSAT ⇒ the formula is True and
//     the collected moves cover every X);
//  2. check ϕ(α, Y): UNSAT ⇒ α is a winning adversary move, the instance is
//     False;
//  3. otherwise take the witness β and refine: add ¬ϕ(X, β) to the
//     abstraction (a formula over X only), removing from consideration every
//     X against which β already wins.
//
// On True instances the recorded (region, β) pairs form a total decision
// list, which converts directly to Skolem functions:
// f_y = ⋁_i sel_i ∧ β_i[y], with sel_i = R_i ∧ ¬(R_1 ∨ … ∨ R_{i-1}) and
// R_i(X) = "β_i satisfies ϕ(X, β_i)".
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package cegar

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/sat"
)

// Sentinel errors.
var (
	// ErrFalse means the 2-QBF is False.
	ErrFalse = errors.New("cegar: instance is False")
	// ErrNotSkolem means some dependency set is not the full universal block.
	ErrNotSkolem = errors.New("cegar: instance is not a Skolem (2-QBF) problem")
	// ErrBudget means an iteration or time budget expired.
	ErrBudget = errors.New("cegar: budget exhausted")
)

// Options configures the solver.
type Options struct {
	// MaxIterations caps refinement rounds (default 10000).
	MaxIterations int
	// SATConflictBudget bounds each SAT call (default 500000).
	SATConflictBudget int64
}

// Stats reports the work performed.
type Stats struct {
	Iterations int
	Moves      int // collected (region, witness) pairs
	// Phases is the per-phase telemetry (refine → extract) in the shared
	// backend vocabulary: refine covers the whole CEGAR loop (abstraction
	// and completion oracle calls), extract the decision-list conversion.
	Phases []backend.PhaseStat
}

// Result is a successful synthesis.
type Result struct {
	Vector *dqbf.FuncVector
	Stats  Stats
}

// Solve decides the 2-QBF and synthesizes Skolem functions for True
// instances. Cancellation of ctx aborts the refinement loop and the SAT
// calls promptly with ErrBudget (the ctx error stays in the chain).
func Solve(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.IsSkolem() {
		return nil, ErrNotSkolem
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 10000
	}
	if opts.SATConflictBudget == 0 {
		opts.SATConflictBudget = 500000
	}
	newSolver := func() *sat.Solver {
		s := sat.New()
		s.SetConflictBudget(opts.SATConflictBudget)
		s.SetContext(ctx)
		return s
	}

	// Abstraction over X; fresh aux variables are allocated in absForm.
	abs := newSolver()
	absForm := cnf.New(in.Matrix.NumVars)
	abs.EnsureVars(in.Matrix.NumVars)

	// Completion checker over ϕ with X assumptions.
	phi := newSolver()
	phi.AddFormula(in.Matrix)

	type move struct {
		beta cnf.Assignment // witness Y values (indexed by variable)
	}
	var moves []move
	stats := Stats{}
	rec := backend.NewPhaseRecorder()
	rec.Begin(backend.PhaseRefine)
	// finish closes the refine phase (attributing the two persistent
	// solvers' oracle calls to it), converts the collected witnesses on the
	// extract phase, and assembles the Result — shared by the two success
	// exits of the loop.
	finish := func(betas []cnf.Assignment) *Result {
		rec.AddOracle(abs.Stats().Solves + phi.Stats().Solves)
		rec.Begin(backend.PhaseExtract)
		vec := buildDecisionList(in, betas)
		stats.Moves = len(moves)
		stats.Phases = rec.Phases()
		return &Result{Vector: vec, Stats: stats}
	}

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: interrupted: %w", ErrBudget, ctx.Err())
		}
		stats.Iterations = iter + 1
		switch st := abs.Solve(); st {
		case sat.Unsat:
			// Every X is covered by some collected move: True.
			betas := make([]cnf.Assignment, len(moves))
			for i, m := range moves {
				betas[i] = m.beta
			}
			return finish(betas), nil
		case sat.Unknown:
			return nil, abs.UnknownError(ErrBudget, "abstraction SAT call")
		}
		alpha := abs.Model()
		assumps := make([]cnf.Lit, 0, len(in.Univ))
		for _, x := range in.Univ {
			assumps = append(assumps, cnf.MkLit(x, alpha.Get(x) == cnf.True))
		}
		switch st := phi.SolveAssume(assumps); st {
		case sat.Unsat:
			return nil, ErrFalse // α is a winning adversary move
		case sat.Unknown:
			return nil, phi.UnknownError(ErrBudget, "completion SAT call")
		}
		pi := phi.Model()
		beta := cnf.NewAssignment(in.Matrix.NumVars)
		for _, y := range in.Exist {
			beta.Set(y, pi.Get(y))
		}
		moves = append(moves, move{beta: beta})

		// Refinement: X must falsify ϕ(X, β) — some clause must have its
		// Y-part unsatisfied by β and its X-part entirely false.
		sels := make([]cnf.Lit, 0, len(in.Matrix.Clauses))
		for _, c := range in.Matrix.Clauses {
			satByBeta := false
			var xLits []cnf.Lit
			for _, l := range c {
				if in.IsExist(l.Var()) {
					if beta.LitValue(l) == cnf.True {
						satByBeta = true
						break
					}
					continue
				}
				xLits = append(xLits, l)
			}
			if satByBeta {
				continue
			}
			// selector s ↔ all X literals false.
			s := cnf.PosLit(absForm.NewVar())
			neg := make([]cnf.Lit, len(xLits))
			for i, l := range xLits {
				neg[i] = l.Neg()
			}
			lenBefore := len(absForm.Clauses)
			absForm.AddAndN(s, neg)
			for _, nc := range absForm.Clauses[lenBefore:] {
				abs.AddClause(nc...)
			}
			sels = append(sels, s)
		}
		if len(sels) == 0 {
			// β satisfies ϕ for every X: single constant strategy wins.
			return finish([]cnf.Assignment{beta}), nil
		}
		if !abs.AddClause(sels...) {
			// Abstraction became UNSAT at level 0: covered on the next loop.
			continue
		}
	}
	return nil, fmt.Errorf("%w: %d iterations", ErrBudget, opts.MaxIterations)
}

// buildDecisionList converts collected witnesses into Skolem functions.
// Region R_i(X) = ⋀_c (c satisfied by β_i's Y-part, or c's X-part true).
func buildDecisionList(in *dqbf.Instance, betas []cnf.Assignment) *dqbf.FuncVector {
	fv := dqbf.NewFuncVector(nil)
	b := fv.B
	funcs := make(map[cnf.Var]boolfunc.Node, len(in.Exist))
	for _, y := range in.Exist {
		funcs[y] = b.False()
	}
	covered := b.False() // R_1 ∨ … ∨ R_{i-1}
	for _, beta := range betas {
		region := b.True()
		for _, c := range in.Matrix.Clauses {
			satByBeta := false
			clauseX := b.False()
			for _, l := range c {
				if in.IsExist(l.Var()) {
					if beta.LitValue(l) == cnf.True {
						satByBeta = true
						break
					}
					continue
				}
				clauseX = b.Or(clauseX, b.Lit(l))
			}
			if satByBeta {
				continue
			}
			region = b.And(region, clauseX)
		}
		sel := b.And(region, b.Not(covered))
		covered = b.Or(covered, region)
		for _, y := range in.Exist {
			if beta.Get(y) == cnf.True {
				funcs[y] = b.Or(funcs[y], sel)
			}
		}
	}
	for _, y := range in.Exist {
		fv.Funcs[y] = funcs[y]
	}
	return fv
}
