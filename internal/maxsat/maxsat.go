// Package maxsat implements a partial MaxSAT solver on top of the CDCL SAT
// solver: all hard clauses must hold, and the solver maximizes the number of
// satisfied soft clauses. It stands in for the Open-WBO solver used by the
// Manthan3 paper.
//
// The search is model-improving linear search (LSU): every soft clause is
// relaxed with a fresh relaxation variable, and an at-most-k bound over the
// relaxation variables (sequential-counter encoding) is tightened below
// each new model's cost until UNSAT. The first SAT call assumes every soft
// clause satisfied; when it succeeds the optimum is 0 and no bound is
// built. Otherwise a call on the hard clauses alone gives the first model,
// or proves the hard clauses UNSAT.
//
// SolveIncremental runs the same optimization against a caller-owned solver:
// the hard formula stays loaded across queries, per-query machinery lives in
// releasable clause groups, and the query-specific hard unit constraints are
// passed as assumptions.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package maxsat

import (
	"context"
	"errors"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// ErrInconclusive is returned when a SAT call exhausts its budget or the
// context ends before the first model is found. When the stop came from the
// context, the wrapped chain also contains the ctx error
// (context.Canceled / context.DeadlineExceeded), so callers can distinguish
// cancellation from conflict-budget exhaustion with errors.Is.
var ErrInconclusive = errors.New("maxsat: optimization inconclusive")

// Soft is a soft clause with unit weight.
type Soft struct {
	Clause cnf.Clause
}

// Result is the outcome of a MaxSAT call.
type Result struct {
	// Status is Sat when an optimal (or budget-best) model was found, Unsat
	// when the hard clauses alone are unsatisfiable.
	Status sat.Status
	// Model is the best model found. It aliases scratch owned by the
	// Incremental that produced it and is only valid until that
	// Incremental's next Solve call; clone it to keep it longer.
	Model cnf.Assignment
	// Cost is the number of falsified soft clauses in Model.
	Cost int
	// Optimal is true when the search proved Cost minimal.
	Optimal bool
	// Falsified lists the indices of soft clauses not satisfied by Model.
	// Like Model, it is reused scratch, valid until the next Solve.
	Falsified []int
}

// Options configures Solve.
type Options struct {
	// ConflictBudget bounds each SAT call; 0 means 200000.
	ConflictBudget int64
}

// Solve minimizes the number of falsified soft clauses subject to hard,
// aborting (with the best model found so far) when ctx ends. It builds a
// throwaway solver over the hard clauses; callers running many MaxSAT
// queries against the same hard formula should load it into a solver once
// and reuse an Incremental.
func Solve(ctx context.Context, hard *cnf.Formula, softs []Soft, opts Options) (Result, error) {
	base := sat.New()
	base.AddFormula(hard)
	return NewIncremental(base).Solve(ctx, nil, softs, opts)
}

// Incremental runs repeated MaxSAT queries against one caller-owned solver.
// The hard formula is loaded into the solver once by the caller; each query
// passes its hard unit constraints as assumptions, and all machinery a query
// adds — relaxation clauses and the cardinality counter — lives in
// releasable clause groups freed before the query returns. Auxiliary
// variables are drawn from a recycling pool so the solver's variable table
// does not grow with the number of queries (Manthan3's FindCandi runs one
// query per counterexample; recycled variables keep late queries as cheap as
// early ones).
type Incremental struct {
	base *sat.Solver
	pool []cnf.Var // recycled relaxation/counter variables
	next int       // pool watermark for the current query

	// Cached cardinality counter. Relaxation variables are always the first
	// len(softs) pool entries, so for a fixed soft count the counter circuit
	// is bit-identical across queries and its clause group can stay loaded;
	// it is only rebuilt when the soft count changes.
	counter      *seqCounter
	counterGroup sat.GroupID
	counterN     int // soft count the cached counter covers; 0 = none

	// Per-query scratch, reused across Solve calls so a long FindCandi run
	// stops allocating: relaxation literals and clauses (relaxLits is the
	// flat backing the relaxed clauses are sliced from), the assumption
	// buffer, and the buffers backing Result.Model / Result.Falsified —
	// which is why those are documented as valid only until the next Solve.
	relax     []cnf.Lit
	relaxCls  []cnf.Clause
	relaxLits []cnf.Lit
	sa        []cnf.Lit
	model     cnf.Assignment
	falsified []int
}

// NewIncremental wraps a solver already loaded with the hard clauses.
func NewIncremental(base *sat.Solver) *Incremental {
	return &Incremental{base: base}
}

// allocVar returns a recycled auxiliary variable, falling back to a fresh
// solver variable when the pool runs dry. Recycling is sound because a
// released group's clauses are physically gone and any learnt clause that
// mentions a pooled variable also carries the released group's activation
// literal, which is fixed true.
func (inc *Incremental) allocVar() cnf.Var {
	if inc.next < len(inc.pool) {
		v := inc.pool[inc.next]
		inc.next++
		return v
	}
	v := inc.base.NewVar()
	inc.pool = append(inc.pool, v)
	inc.next++
	return v
}

// Solve minimizes the number of falsified soft clauses subject to the
// solver's clauses plus the given assumptions. The caller's conflict budget
// and context are installed on the base solver for the duration; a canceled
// or expired ctx ends the optimization early with the best model found.
func (inc *Incremental) Solve(ctx context.Context, assumps []cnf.Lit, softs []Soft, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	base := inc.base
	budget := opts.ConflictBudget
	if budget == 0 {
		budget = 200000
	}
	base.SetConflictBudget(budget)
	// Install unconditionally: this query's context must REPLACE whatever a
	// previous query left on the shared solver.
	base.SetContext(ctx)
	inc.next = 0 // recycle the variable pool from the top
	// A cached counter for a different soft count is stale — and its
	// auxiliary variables overlap the pool positions this query hands out as
	// relaxation variables — so it must go before any variable is recycled.
	if inc.counterN != 0 && inc.counterN != len(softs) {
		base.ReleaseGroup(inc.counterGroup)
		inc.counter = nil
		inc.counterN = 0
	}

	// Relaxation variable per soft clause: soft_i ∨ r_i ; r_i true means the
	// soft clause may be violated. The relaxed clauses are sliced out of one
	// flat reused backing (sized up front so the subslices stay put).
	total := 0
	for _, s := range softs {
		total += len(s.Clause) + 1
	}
	if cap(inc.relaxLits) < total {
		inc.relaxLits = make([]cnf.Lit, 0, total)
	}
	lits := inc.relaxLits[:0]
	relax := inc.relax[:0]
	relaxCls := inc.relaxCls[:0]
	for _, s := range softs {
		r := cnf.PosLit(inc.allocVar())
		relax = append(relax, r)
		start := len(lits)
		lits = append(lits, s.Clause...)
		lits = append(lits, r)
		relaxCls = append(relaxCls, cnf.Clause(lits[start:len(lits):len(lits)]))
	}
	inc.relaxLits, inc.relax, inc.relaxCls = lits, relax, relaxCls
	softGroup := base.AddClauseGroup(relaxCls)
	defer base.ReleaseGroup(softGroup)

	// First: try all softs satisfied (assume ¬r_i for all i).
	if cap(inc.sa) < len(assumps)+len(relax)+1 {
		inc.sa = make([]cnf.Lit, 0, len(assumps)+len(relax)+1)
	}
	sa := inc.sa[:0]
	sa = append(sa, assumps...)
	for _, r := range relax {
		sa = append(sa, r.Neg())
	}
	inc.sa = sa
	switch base.SolveAssume(sa) {
	case sat.Sat:
		inc.model = base.ModelInto(inc.model)
		return Result{Status: sat.Sat, Model: inc.model, Cost: 0, Optimal: true}, nil
	case sat.Unknown:
		return Result{Status: sat.Unknown}, base.UnknownError(ErrInconclusive, "before first model")
	}

	// Hard clauses alone satisfiable?
	st := base.SolveAssume(assumps)
	if st == sat.Unsat {
		return Result{Status: sat.Unsat}, nil
	}
	if st == sat.Unknown {
		return Result{Status: sat.Unknown}, base.UnknownError(ErrInconclusive, "on hard clauses")
	}
	inc.model = base.ModelInto(inc.model)
	best := inc.model
	bestCost := costOf(softs, best)

	// Linear search: add at-most-k over relax vars, decreasing k. The counter
	// circuit lives in its own clause group and is cached across queries of
	// the same soft count; learnt clauses and VSIDS state carry over between
	// bound tightenings and between queries.
	if inc.counterN == 0 {
		counter, counterCls := inc.buildCounter(relax)
		inc.counter = counter
		inc.counterGroup = base.AddClauseGroup(counterCls)
		inc.counterN = len(relax)
	}
	counter := inc.counter
	optimal := false
	for bestCost > 0 {
		if ctx.Err() != nil {
			break
		}
		// Assume at most bestCost-1 relaxations: outs[k] means ≥ k+1
		// inputs true, so forbid it.
		k := bestCost - 1
		sa = append(sa[:0], assumps...)
		if k < len(counter.outs) {
			sa = append(sa, counter.outs[k].Neg())
		}
		st := base.SolveAssume(sa)
		if st == sat.Sat {
			inc.model = base.ModelInto(inc.model)
			best = inc.model
			c := costOf(softs, best)
			if c >= bestCost {
				// Should not happen; guard against miscounts.
				break
			}
			bestCost = c
			continue
		}
		if st == sat.Unsat {
			optimal = true
		}
		break
	}
	if bestCost == 0 {
		optimal = true
	}
	res := Result{Status: sat.Sat, Model: best, Cost: bestCost, Optimal: optimal}
	inc.falsified = inc.falsified[:0]
	for i, s := range softs {
		if !clauseSat(s.Clause, best) {
			inc.falsified = append(inc.falsified, i)
		}
	}
	res.Falsified = inc.falsified
	return res, nil
}

// buildCounter encodes the sequential counter over relax into a virtual
// variable space and remaps its auxiliary variables through the recycling
// pool, returning the counter (outputs remapped) and the remapped clauses.
func (inc *Incremental) buildCounter(relax []cnf.Lit) (*seqCounter, []cnf.Clause) {
	virt := inc.base.NumVars() // counter vars are encoded above this mark
	cf := cnf.New(virt)
	counter := newSeqCounter(cf, relax)
	vmap := make([]cnf.Var, cf.NumVars-virt)
	for i := range vmap {
		vmap[i] = inc.allocVar()
	}
	remap := func(l cnf.Lit) cnf.Lit {
		if v := int(l.Var()); v > virt {
			return cnf.MkLit(vmap[v-virt-1], l.IsPos())
		}
		return l
	}
	for _, c := range cf.Clauses {
		for i, l := range c {
			c[i] = remap(l)
		}
	}
	for i, l := range counter.outs {
		counter.outs[i] = remap(l)
	}
	return counter, cf.Clauses
}

// Release frees the cached counter group. The Incremental remains usable;
// call it when the solver will outlive the MaxSAT queries.
func (inc *Incremental) Release() {
	if inc.counterN != 0 {
		inc.base.ReleaseGroup(inc.counterGroup)
		inc.counter = nil
		inc.counterN = 0
	}
}

// SolveIncremental is a convenience wrapper for a single incremental query,
// leaving no groups behind on base; see Incremental for the reusable form
// that also recycles variables and the cardinality counter across queries.
func SolveIncremental(ctx context.Context, base *sat.Solver, assumps []cnf.Lit, softs []Soft, opts Options) (Result, error) {
	inc := NewIncremental(base)
	res, err := inc.Solve(ctx, assumps, softs, opts)
	inc.Release()
	return res, err
}

func clauseSat(c cnf.Clause, m cnf.Assignment) bool {
	for _, l := range c {
		if m.LitValue(l) == cnf.True {
			return true
		}
	}
	return false
}

func costOf(softs []Soft, m cnf.Assignment) int {
	cost := 0
	for _, s := range softs {
		if !clauseSat(s.Clause, m) {
			cost++
		}
	}
	return cost
}

// seqCounter is a sequential-counter cardinality encoding (Sinz 2005) over a
// set of input literals, with unary outputs outs[k] meaning "at least k+1
// inputs are true". Bounds are imposed by assuming ¬outs[k].
type seqCounter struct {
	outs []cnf.Lit
}

// newSeqCounter extends f with the counter circuit over lits.
func newSeqCounter(f *cnf.Formula, lits []cnf.Lit) *seqCounter {
	n := len(lits)
	if n == 0 {
		return &seqCounter{}
	}
	// s[i][j]: among lits[0..i], at least j+1 are true.
	prev := make([]cnf.Lit, 0, n)
	for i, x := range lits {
		cur := make([]cnf.Lit, i+1)
		for j := range cur {
			cur[j] = cnf.PosLit(f.NewVar())
		}
		// cur[0] ↔ x ∨ prev[0]
		if i == 0 {
			f.AddEquivLit(cur[0], x)
		} else {
			f.AddOr(cur[0], x, prev[0])
			for j := 1; j <= i; j++ {
				// cur[j] ↔ prev[j] ∨ (x ∧ prev[j-1])
				and := cnf.PosLit(f.NewVar())
				f.AddAnd(and, x, prev[j-1])
				if j < len(prev) {
					f.AddOr(cur[j], prev[j], and)
				} else {
					f.AddEquivLit(cur[j], and)
				}
			}
		}
		prev = cur
	}
	return &seqCounter{outs: prev}
}
