// Package pedant implements an arbiter-based Henkin synthesizer in the
// spirit of Pedant (Reichl, Slivovsky, Szeider, SAT 2021).
//
// Pedant detects existential variables uniquely defined by their dependency
// sets, and covers the remaining freedom with *arbiter variables*: one
// propositional variable per (existential, dependency-set assignment) cell
// whose value a SAT solver chooses consistently with all constraints seen so
// far. This reproduction keeps the arbiter half of that architecture, as a
// counterexample-guided instantiation loop. It extracts no definitions, so
// a defined existential gets arbiter cells like any other:
//
//  1. Maintain an incremental SAT instance over arbiter variables. Each
//     verification counterexample β (an assignment of X where the current
//     tables fail) instantiates every matrix clause under β, with
//     existential literals mapped to the arbiter cell for β↾Hi, and adds the
//     instantiated clauses.
//  2. A model of the arbiter instance is a partial truth-table per
//     existential (default 0 on untouched cells); verification either
//     certifies it or produces a new β. Unsatisfiability of the (partial)
//     instantiation proves the DQBF False, since it under-approximates the
//     full expansion. Verification runs on one solver per run, loaded once
//     with ¬ϕ and branching on X alone. Each cell (y, row) is encoded there
//     once, when it is allocated: a match variable m ↔ (H(y) = row), a
//     value variable a, and m → (y ↔ a). Untouched rows default to 0
//     through a chain per existential, y → t₀ and tᵢ ↔ mᵢ ∨ tᵢ₊₁ for its
//     i-th cell, whose newest link (the frontier) is assumed false. A round
//     is one assumption solve — every frontier false, every value variable
//     set to its cell's arbiter value — so nothing is released or
//     re-encoded, and the function vector is built once, from the final
//     model.
//
// The loop terminates: each counterexample's instantiation forces all later
// models to satisfy ϕ on that β, and there are finitely many β. Like Pedant,
// the method is complete, certifying (functions verified by construction),
// and strongest on instances whose counterexamples touch few cells,
// complementing both expansion and Manthan3.
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
	// ErrInternal means the engine caught itself in an inconsistent state:
	// a verification counterexample added no constraints to the arbiter
	// instance. The backend adapter maps ErrInternal to
	// backend.ErrInternal.
	ErrInternal = errors.New("pedant: internal error")
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
	// Deprecated: ignored; Solve runs on the calling goroutine alone. The
	// field stays until the benchmark module stops setting it.
	DefineWorkers int
}

// Stats reports work performed.
type Stats struct {
	Iterations  int
	ArbiterVars int
	InstClauses int
	VerifyCalls int
	// Phases is the per-phase telemetry in the shared backend vocabulary:
	// one refine phase, the counterexample-guided arbiter loop (including
	// its verification calls and the final table read-back).
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
	xPos  map[cnf.Var]int

	arb     *sat.Solver         // incremental arbiter instance
	cells   map[cellKey]cnf.Var // arbiter variable per touched cell
	touched map[cnf.Var][]int   // y → rows with arbiter vars, in creation order
	model   cnf.Assignment      // arbiter model of the current round

	ver      *sat.Solver         // verification solver: ¬ϕ plus cell encodings
	enc      *cnf.Formula        // ver's variable allocator; clauses not yet in ver
	vals     []cnf.Var           // at v-1: ver's value variable of arbiter cell v
	frontier map[cnf.Var]cnf.Var // y → newest link of y's default chain
	assumps  []cnf.Lit
	beta     cnf.Assignment // the last counterexample, on X
	inst     []cnf.Lit      // scratch: one instantiated clause
	cube     []cnf.Lit      // scratch: one row's literals over H(y)
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
	e := newEngine(ctx, in, opts)

	rec := backend.NewPhaseRecorder()
	rec.Begin(backend.PhaseRefine)
	e.buildVerifier()
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: interrupted: %w", ErrBudget, ctx.Err())
		}
		e.stats.Iterations = iter + 1
		if err := e.solveArbiter(); err != nil {
			return nil, err
		}
		valid, err := e.verify()
		if err != nil {
			return nil, err
		}
		if valid {
			fv := e.vector()
			e.stats.ArbiterVars = len(e.cells)
			// One arbiter solve and one verification solve per round.
			rec.AddOracle(e.arb.Stats().Solves + int64(e.stats.VerifyCalls))
			e.stats.Phases = rec.Phases()
			return &Result{Vector: fv, Stats: e.stats}, nil
		}
		if err := e.instantiate(); err != nil {
			return nil, err
		}
		if len(e.cells) > maxCellsPerVar*len(in.Exist) {
			return nil, fmt.Errorf("%w: %d arbiter cells", ErrTooLarge, len(e.cells))
		}
	}
	return nil, fmt.Errorf("%w: %d iterations", ErrBudget, opts.MaxIterations)
}

// newEngine returns an engine with an empty arbiter instance; the
// verification solver is built by buildVerifier.
func newEngine(ctx context.Context, in *dqbf.Instance, opts Options) *engine {
	e := &engine{
		ctx:      ctx,
		in:       in,
		opts:     opts,
		xPos:     make(map[cnf.Var]int, len(in.Univ)),
		arb:      sat.New(),
		cells:    make(map[cellKey]cnf.Var),
		touched:  make(map[cnf.Var][]int),
		frontier: make(map[cnf.Var]cnf.Var, len(in.Exist)),
		beta:     cnf.NewAssignment(in.Matrix.NumVars),
	}
	e.arb.SetConflictBudget(opts.SATConflictBudget)
	e.arb.SetContext(ctx)
	for i, x := range in.Univ {
		e.xPos[x] = i
	}
	return e
}

// buildVerifier loads ¬ϕ and the head of every existential's default chain,
// y → t₀, into the run's one verification solver.
func (e *engine) buildVerifier() {
	enc := cnf.New(e.in.Matrix.NumVars)
	e.in.Matrix.NegationInto(enc)
	for _, y := range e.in.Exist {
		t := enc.NewVar()
		enc.AddClause(cnf.NegLit(y), cnf.PosLit(t))
		e.frontier[y] = t
	}
	e.ver = sat.New()
	e.ver.SetConflictBudget(e.opts.SATConflictBudget)
	e.ver.SetContext(e.ctx)
	e.ver.AddFormula(enc)
	// Once X and the assumptions are set, propagation assigns every other
	// variable: Y through the matching cell or the chain, then ¬ϕ's
	// selectors.
	e.ver.RestrictBranching(e.in.Univ)
	enc.Clauses = enc.Clauses[:0]
	e.enc = enc
}

// cellVar returns (allocating on demand) the arbiter variable for y's row. A
// new cell's encoding in the verification solver — m ↔ (H(y) = row),
// m → (y ↔ a), and the next link of y's chain — is queued in e.enc. Every
// arbiter variable is allocated here, so e.vals[v-1] belongs to v.
func (e *engine) cellVar(y cnf.Var, row int) cnf.Var {
	key := cellKey{y, row}
	if v, ok := e.cells[key]; ok {
		return v
	}
	v := e.arb.NewVar()
	e.cells[key] = v
	e.touched[y] = append(e.touched[y], row)

	m, a, next := e.enc.NewVar(), e.enc.NewVar(), e.enc.NewVar()
	cube := e.cube[:0]
	for k, d := range e.in.DepSet(y) {
		cube = append(cube, cnf.MkLit(d, row&(1<<uint(k)) != 0))
	}
	e.cube = cube
	e.enc.AddAndN(cnf.PosLit(m), cube)
	e.enc.AddClause(cnf.NegLit(m), cnf.NegLit(a), cnf.PosLit(y))
	e.enc.AddClause(cnf.NegLit(m), cnf.PosLit(a), cnf.NegLit(y))
	e.enc.AddOr(cnf.PosLit(e.frontier[y]), cnf.PosLit(m), cnf.PosLit(next))
	e.frontier[y] = next
	e.vals = append(e.vals, a)
	return v
}

// instantiate adds the clause instantiations for the counterexample e.beta
// to the arbiter instance.
func (e *engine) instantiate() error {
	added := false
	for _, c := range e.in.Matrix.Clauses {
		inst := e.inst[:0]
		satisfied := false
		for _, l := range c {
			if _, isX := e.xPos[l.Var()]; isX {
				if e.beta.LitValue(l) == cnf.True {
					satisfied = true
					break
				}
				continue
			}
			y := l.Var()
			row := 0
			for k, d := range e.in.DepSet(y) {
				if e.beta.Get(d) == cnf.True {
					row |= 1 << uint(k)
				}
			}
			inst = append(inst, cnf.MkLit(e.cellVar(y, row), l.IsPos()))
		}
		e.inst = inst
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

// solveArbiter solves the arbiter instance and reads its model into
// e.model.
func (e *engine) solveArbiter() error {
	switch st := e.arb.Solve(); st {
	case sat.Unsat:
		return ErrFalse
	case sat.Unknown:
		return e.arb.UnknownError(ErrBudget, "arbiter SAT call")
	}
	e.model = e.arb.ModelInto(e.model)
	return nil
}

// verify checks the tables of e.model against ϕ; on failure the failing
// universal assignment is left in e.beta.
func (e *engine) verify() (bool, error) {
	e.stats.VerifyCalls++
	e.ver.EnsureVars(e.enc.NumVars)
	e.ver.AddClauses(e.enc.Clauses)
	e.enc.Clauses = e.enc.Clauses[:0]
	as := e.assumps[:0]
	for _, y := range e.in.Exist {
		as = append(as, cnf.NegLit(e.frontier[y]))
	}
	for i, a := range e.vals {
		as = append(as, cnf.MkLit(a, e.model.Get(cnf.Var(i+1)) == cnf.True))
	}
	e.assumps = as
	switch st := e.ver.SolveAssume(as); st {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		for _, x := range e.in.Univ {
			e.beta.Set(x, e.ver.ModelValue(x))
		}
		return false, nil
	default:
		return false, e.ver.UnknownError(ErrBudget, "verification")
	}
}

// vector reads back decision-list functions from e.model: for each
// existential, the disjunction of the cubes of touched rows whose arbiter is
// true (untouched cells default to 0).
func (e *engine) vector() *dqbf.FuncVector {
	fv := dqbf.NewFuncVector(nil)
	b := fv.B
	for _, y := range e.in.Exist {
		deps := e.in.DepSet(y)
		f := b.False()
		for _, row := range e.touched[y] {
			if e.model.Get(e.cells[cellKey{y, row}]) != cnf.True {
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
	return fv
}
