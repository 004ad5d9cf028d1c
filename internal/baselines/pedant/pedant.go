// Package pedant implements a definition/arbiter-based Henkin synthesizer in
// the spirit of Pedant (Reichl, Slivovsky, Szeider, SAT 2021).
//
// Pedant detects existential variables uniquely defined by their dependency
// sets, and covers the remaining freedom with *arbiter variables*: one
// propositional variable per (existential, dependency-set assignment) cell
// whose value a SAT solver chooses consistently with all constraints seen so
// far. This reproduction keeps that architecture with a counterexample-
// guided instantiation loop:
//
//  1. Detect uniquely-defined existentials with Padoa's theorem. Only
//     Stats.DefinedVars reads the result; the arbiter loop handles their
//     cells like any other. The per-existential checks run on a worker pool
//     over an oracle.Pool of incremental doubled-ϕ solvers; see define.go.
//  2. Maintain an incremental SAT instance over arbiter variables. Each
//     verification counterexample β (an assignment of X where the current
//     tables fail) instantiates every matrix clause under β, with
//     existential literals mapped to the arbiter cell for β↾Hi, and adds the
//     instantiated clauses.
//  3. A model of the arbiter instance is a partial truth-table per
//     existential (default 0 on untouched cells); verification either
//     certifies it or produces a new β. Unsatisfiability of the (partial)
//     instantiation proves the DQBF False, since it under-approximates the
//     full expansion.
//
// The loop terminates: each counterexample's instantiation forces all later
// models to satisfy ϕ on that β, and there are finitely many β. Like Pedant,
// the method is complete, certifying (functions verified by construction),
// and strongest on instances with many defined variables / small dependency
// sets, complementing both expansion and Manthan3.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package pedant

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
	// ErrFalse means the instance is False.
	ErrFalse = errors.New("pedant: instance is False")
	// ErrBudget means an iteration/deadline budget expired.
	ErrBudget = errors.New("pedant: budget exhausted")
	// ErrTooLarge means a dependency set exceeds the cell limit.
	ErrTooLarge = errors.New("pedant: dependency sets too large")
	// ErrInternal means a Padoa worker panicked, or the engine caught itself
	// in an inconsistent state. A worker panic is recovered by
	// oracle.ForEach on the goroutine that raised it (a caller-side recover
	// cannot cross goroutines), and its oracle.ErrPanic error, carrying the
	// panic value and stack, stays in the chain. The backend adapter maps
	// ErrInternal to backend.ErrInternal.
	ErrInternal = errors.New("pedant: internal panic")
)

// maxCellsPerVar caps arbiter-cell growth: Solve gives up with ErrTooLarge
// once the allocated cells exceed maxCellsPerVar per existential.
const maxCellsPerVar = 1 << 16

// Options configures the synthesizer.
type Options struct {
	// MaxIterations caps counterexample rounds (default 4096).
	MaxIterations int
	// SATConflictBudget bounds each SAT call (default 500000).
	SATConflictBudget int64
	// SkipDefinitionCheck disables the Padoa pass.
	SkipDefinitionCheck bool
	// DefineWorkers bounds the Padoa pass's worker pool (0 = NumCPU): the
	// per-existential definedness queries run concurrently over an
	// oracle.Pool of doubled-ϕ-loaded solvers and merge in declaration
	// order, so Stats.DefinedVars is bit-identical for every worker count.
	DefineWorkers int
}

// Stats reports work performed.
type Stats struct {
	DefinedVars int
	Iterations  int
	ArbiterVars int
	InstClauses int
	VerifyCalls int
	// Phases is the per-phase telemetry (define → refine) in the shared
	// backend vocabulary: define is the Padoa definition pass, refine the
	// counterexample-guided arbiter loop (including its verification
	// calls and the final table read-back).
	Phases []backend.PhaseStat
}

// Result is a successful synthesis.
type Result struct {
	Vector *dqbf.FuncVector
	Stats  Stats
}

// cellKey identifies an arbiter cell: existential y and the projection of a
// universal assignment onto H(y), packed as bits in dependency order.
type cellKey struct {
	y   cnf.Var
	row int
}

type engine struct {
	ctx   context.Context
	in    *dqbf.Instance
	opts  Options
	stats Stats

	arb     *sat.Solver         // incremental arbiter instance
	arbForm *cnf.Formula        // mirror of variables for allocation
	cells   map[cellKey]cnf.Var // arbiter variable per touched cell
	touched map[cnf.Var][]int   // y → rows with arbiter vars, in creation order
	phi     *sat.Solver         // solver over ϕ for extension checks
	xPos    map[cnf.Var]int
}

// Solve synthesizes Henkin functions (or proves the instance False).
// Cancellation of ctx aborts the counterexample loop and every SAT call
// promptly with ErrBudget (the ctx error stays in the chain).
func Solve(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 4096
	}
	if opts.SATConflictBudget == 0 {
		opts.SATConflictBudget = 500000
	}
	for _, y := range in.Exist {
		// Arbiter cells are allocated lazily per counterexample, so large
		// dependency sets are fine as long as few cells are touched; only
		// row-index overflow is rejected up front. maxCellsPerVar is
		// enforced on actually-allocated cells during instantiation.
		if len(in.DepSet(y)) > 30 {
			return nil, fmt.Errorf("%w: |H(%d)| = %d", ErrTooLarge, y, len(in.DepSet(y)))
		}
	}
	e := &engine{
		ctx:     ctx,
		in:      in,
		opts:    opts,
		arb:     sat.New(),
		arbForm: cnf.New(0),
		cells:   make(map[cellKey]cnf.Var),
		touched: make(map[cnf.Var][]int),
		phi:     sat.New(),
		xPos:    make(map[cnf.Var]int, len(in.Univ)),
	}
	e.arb.SetConflictBudget(opts.SATConflictBudget)
	e.phi.SetConflictBudget(opts.SATConflictBudget)
	e.arb.SetContext(ctx)
	e.phi.SetContext(ctx)
	e.phi.AddFormula(in.Matrix)
	for i, x := range in.Univ {
		e.xPos[x] = i
	}

	rec := backend.NewPhaseRecorder()
	if !opts.SkipDefinitionCheck {
		rec.Begin(backend.PhaseDefine)
		if err := e.countDefined(); err != nil {
			return nil, err
		}
		rec.AddOracle(int64(len(in.Exist))) // one Padoa query per existential
	}

	rec.Begin(backend.PhaseRefine)
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: interrupted: %w", ErrBudget, ctx.Err())
		}
		e.stats.Iterations = iter + 1
		fv, err := e.currentVector()
		if err != nil {
			return nil, err
		}
		cex, valid, err := e.verify(fv)
		if err != nil {
			return nil, err
		}
		if valid {
			e.stats.ArbiterVars = len(e.cells)
			// Arbiter solves plus the one-shot verification solvers.
			rec.AddOracle(e.arb.Stats().Solves + int64(e.stats.VerifyCalls))
			e.stats.Phases = rec.Phases()
			return &Result{Vector: fv, Stats: e.stats}, nil
		}
		if err := e.instantiate(cex); err != nil {
			return nil, err
		}
		if len(e.cells) > maxCellsPerVar*len(in.Exist) {
			return nil, fmt.Errorf("%w: %d arbiter cells", ErrTooLarge, len(e.cells))
		}
	}
	return nil, fmt.Errorf("%w: %d iterations", ErrBudget, opts.MaxIterations)
}

// cellVar returns (allocating on demand) the arbiter variable for y's row.
func (e *engine) cellVar(y cnf.Var, row int) cnf.Var {
	k := cellKey{y, row}
	if v, ok := e.cells[k]; ok {
		return v
	}
	v := e.arbForm.NewVar()
	e.arb.EnsureVars(int(v))
	e.cells[k] = v
	e.touched[y] = append(e.touched[y], row)
	return v
}

// instantiate adds the clause instantiations for the universal assignment in
// cex to the arbiter instance.
func (e *engine) instantiate(cex cnf.Assignment) error {
	beta := 0
	for i, x := range e.in.Univ {
		if cex.Get(x) == cnf.True {
			beta |= 1 << uint(i)
		}
	}
	added := false
	for _, c := range e.in.Matrix.Clauses {
		inst := make([]cnf.Lit, 0, len(c))
		satisfied := false
		for _, l := range c {
			if p, isX := e.xPos[l.Var()]; isX {
				if (beta&(1<<uint(p)) != 0) == l.IsPos() {
					satisfied = true
					break
				}
				continue
			}
			y := l.Var()
			row := 0
			for k, d := range e.in.DepSet(y) {
				if beta&(1<<uint(e.xPos[d])) != 0 {
					row |= 1 << uint(k)
				}
			}
			inst = append(inst, cnf.MkLit(e.cellVar(y, row), l.IsPos()))
		}
		if satisfied {
			continue
		}
		if len(inst) == 0 {
			return ErrFalse
		}
		e.stats.InstClauses++
		if !e.arb.AddClause(inst...) {
			return ErrFalse
		}
		added = true
	}
	if !added {
		// ϕ is already satisfied under β for any table: the verifier's
		// counterexample must then be spurious — internal error.
		return fmt.Errorf("%w: counterexample added no constraints", ErrInternal)
	}
	return nil
}

// currentVector solves the arbiter instance and reads back decision-list
// functions: for each existential, the disjunction of the cubes of touched
// rows whose arbiter is true (untouched cells default to 0).
func (e *engine) currentVector() (*dqbf.FuncVector, error) {
	switch st := e.arb.Solve(); st {
	case sat.Unsat:
		return nil, ErrFalse
	case sat.Unknown:
		return nil, e.arb.UnknownError(ErrBudget, "arbiter SAT call")
	}
	m := e.arb.Model()
	fv := dqbf.NewFuncVector(nil)
	b := fv.B
	for _, y := range e.in.Exist {
		deps := e.in.DepSet(y)
		f := b.False()
		for _, row := range e.touched[y] {
			if m.Get(e.cells[cellKey{y, row}]) != cnf.True {
				continue
			}
			cube := b.True()
			for k, d := range deps {
				cube = b.And(cube, b.Lit(cnf.MkLit(d, row&(1<<uint(k)) != 0)))
			}
			f = b.Or(f, cube)
		}
		fv.Funcs[y] = f
	}
	return fv, nil
}

// verify checks the candidate vector against ϕ; on failure it returns the
// failing universal assignment.
func (e *engine) verify(fv *dqbf.FuncVector) (cnf.Assignment, bool, error) {
	e.stats.VerifyCalls++
	dst := cnf.New(e.in.Matrix.NumVars)
	e.in.Matrix.NegationInto(dst)
	for _, y := range e.in.Exist {
		out := fv.B.ToCNF(fv.Funcs[y], dst, boolfunc.CNFOptions{})
		dst.AddEquivLit(cnf.PosLit(y), out)
	}
	s := sat.New()
	s.SetConflictBudget(e.opts.SATConflictBudget)
	s.SetContext(e.ctx)
	s.AddFormula(dst)
	switch st := s.Solve(); st {
	case sat.Unsat:
		return nil, true, nil
	case sat.Sat:
		m := s.Model()
		return m.Restrict(e.in.Univ), false, nil
	default:
		return nil, false, s.UnknownError(ErrBudget, "verification")
	}
}
