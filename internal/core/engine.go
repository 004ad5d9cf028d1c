package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/backend"
	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/maxsat"
	"repro/internal/sampler"
	"repro/internal/sat"
)

// Sentinel errors returned by Synthesize.
var (
	// ErrFalse means the DQBF instance is False: no Henkin vector exists.
	ErrFalse = errors.New("core: instance is False, no Henkin function vector exists")
	// ErrIncomplete means the repair loop can make no further progress, or
	// its row repair patched one row both ways — the incompleteness case
	// the paper documents in §5 (49 of its 88 unsolved instances).
	ErrIncomplete = errors.New("core: repair stuck, Manthan3 is incomplete on this instance")
	// ErrBudget means a deadline or iteration budget expired.
	ErrBudget = errors.New("core: budget exhausted")
	// ErrCanceled means the caller canceled the context mid-synthesis. The
	// wrapped chain also contains context.Canceled, so either sentinel works
	// with errors.Is.
	ErrCanceled = errors.New("core: synthesis canceled")
	// ErrInternal means the run panicked in some phase, or the engine caught
	// itself in an inconsistent state. A run lives on its caller's
	// goroutine, and Synthesize recovers a panic of any phase there, so it
	// reaches direct callers as ErrInternal carrying the panic value and
	// stack. The backend adapter maps ErrInternal to backend.ErrInternal.
	ErrInternal = errors.New("core: internal panic")
)

// Options tunes the engine. The zero value gives usable defaults.
type Options struct {
	// Seed drives sampling and solver randomization.
	Seed int64
	// MaxRepairIterations caps verify-repair rounds (default 2000).
	MaxRepairIterations int
	// SATConflictBudget bounds each SAT oracle call (default 500000).
	SATConflictBudget int64
	// LearnWorkers, PreprocWorkers and VerifyWorkers are ignored: a run is
	// serial, on its caller's goroutine. They stay only because the
	// benchmark module (perfbench) sets them.
	LearnWorkers, PreprocWorkers, VerifyWorkers int

	// Logf, when non-nil, receives progress trace lines (used by the CLI's
	// verbose mode; nil disables tracing).
	Logf func(format string, args ...any)

	// numSamples is the number of satisfying assignments to learn from; 0,
	// the only value outside tests, means 400. Tests lower it to keep
	// sampling cheap, or raise it to keep the sampler busy.
	numSamples int
	// treeMaxDepth bounds candidate decision trees; 0, the only value
	// outside tests, leaves them unbounded. Tests bound it to keep learning
	// cheap so verify-repair dominates.
	treeMaxDepth int
}

// tracef forwards to Options.Logf when configured.
func (e *Engine) tracef(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

func (o Options) withDefaults() Options {
	if o.numSamples == 0 {
		o.numSamples = 400
	}
	if o.MaxRepairIterations == 0 {
		o.MaxRepairIterations = 2000
	}
	if o.SATConflictBudget == 0 {
		o.SATConflictBudget = 500000
	}
	return o
}

// Stats reports work performed during synthesis.
type Stats struct {
	Samples int
	// UnatesDetected counts the existentials the preprocess phase fixed to
	// a constant as unate, syntactically or semantically (see preprocess).
	UnatesDetected     int
	VerifyCalls        int
	RepairIterations   int
	CandidatesRepaired int
	MaxSATCalls        int
	CoreCalls          int
	LearnedNodes       int
	// DefinedVars counts the existentials the preprocess phase defined by a
	// gate over at most three other variables (see defineGates).
	DefinedVars int
	// RowRepairs counts the repairs, among CandidatesRepaired, that came
	// from Gk with all of X pinned (see patchRow): yk's Gk was satisfiable
	// although its output differed from the completion's, and the pinned
	// query's core, less the universals outside Hk, gave the cube to patch.
	// RowOscillations counts the runs stopped because a row σ[Hk] was
	// patched both ways (0 or 1).
	RowRepairs      int
	RowOscillations int
	// VerifySolversBuilt counts constructions of the verification solver; the
	// persistent-oracle architecture keeps it at 1 per synthesis run.
	VerifySolversBuilt int
	// CandidateReencodes counts per-candidate clause groups re-encoded into
	// the persistent verification solver after repairs (the initial encoding
	// of each candidate is not counted).
	CandidateReencodes int
	// PreprocSolversBuilt is 1 when the preprocess phase built the solver
	// of its semantic unate checks, and 0 when the syntactic pass left it
	// no existential to check.
	PreprocSolversBuilt int
	// BatchedProbes and RepairSolversBuilt are always 0: every repair query
	// runs on the ϕ-solver. They stay only because the benchmark module
	// (perfbench) reads them.
	BatchedProbes      int
	RepairSolversBuilt int
	// OracleCalls totals the SAT/MaxSAT solver calls of the whole run.
	OracleCalls int64
	// Phases reports per-phase telemetry (name, wall-clock duration, oracle
	// calls) in execution order: preprocess → sample → learn →
	// verify-repair, or verify-repair alone when there is no existential.
	Phases []backend.PhaseStat
	// SAT aggregates the lifetime counters of the run's persistent solvers
	// (the ϕ solver, the verification solver, and FindCandi's base solver):
	// search totals (solves, conflicts, propagations, decisions, restarts),
	// learnt-tier sizes and glue, and arena and clause-group sizes.
	SAT sat.Stats
}

// Result is a successful synthesis outcome.
type Result struct {
	// Vector holds one function per existential, expressed purely over its
	// Henkin dependency set.
	Vector *dqbf.FuncVector
	// Stats summarizes the run.
	Stats Stats
}

// Engine carries the state of one synthesis run.
type Engine struct {
	ctx  context.Context
	in   *dqbf.Instance
	opts Options
	b    *boolfunc.Builder

	funcs map[cnf.Var]boolfunc.Node // current candidates (may reference Y)
	fixed map[cnf.Var]bool          // set by preprocessing; never repaired
	deps  map[cnf.Var]map[cnf.Var]bool
	// deps[y] is the paper's d_y: the set of Y variables that depend on y,
	// maintained transitively closed (if yi's candidate references yk, then
	// yi and everything depending on yi appear in deps of yk and of every
	// variable yk transitively references).
	up map[cnf.Var]map[cnf.Var]bool
	// up[y] is the transitive set of Y variables y's candidate references.
	order    []cnf.Var       // linear extension (Order)
	orderIdx map[cnf.Var]int // position in order

	phiSolver *sat.Solver // persistent solver over ϕ for assumption queries

	// Persistent verification oracle: one solver holds ¬ϕ(X,Y′) for the whole
	// run plus one releasable clause group per candidate's Y′ ↔ f encoding.
	// verify swaps only the groups of candidates that changed since the last
	// call (tracked in dirty) instead of rebuilding E(X,Y′) from scratch.
	verifySolver *sat.Solver
	verifyEnc    *cnf.Formula            // scratch formula, also the solver's variable allocator
	prime        map[cnf.Var]cnf.Var     // Y → Y′
	groupOf      map[cnf.Var]sat.GroupID // live equivalence group per existential
	encCache     boolfunc.Cache          // persistent Tseitin memo: DAG node id → literal
	mapVar       func(cnf.Var) cnf.Var   // Y → Y′ renaming for ToCNF, built once
	grpBuf       [2][]cnf.Lit            // scratch for the 2-clause equivalence group
	grpCls       [2]cnf.Clause
	dirty        map[cnf.Var]bool // candidates changed since last encode

	// Engine-owned verify-repair scratch, reused across rounds so the hot
	// loop stops allocating: the repackaged verify model, the persistent
	// counterexample σ buffers, and the repair/FindCandi working sets
	// (sparse []bool sets are cleared by walking the same lists that set
	// them).
	delta      cnf.Assignment // verify()'s repackaged model
	cex        counterexample // σ: filled per round by extendCounterexample
	scrAssumps []cnf.Lit
	scrQueue   []cnf.Var // repair queue backing; grows with blame appends
	scrInQueue []bool    // indexed by var: queue membership
	scrMark    []bool    // indexed by var: Ŷ membership scratch
	scrGk      []cnf.Lit // Gk's assumptions
	scrYHat    []cnf.Var // Ŷ of the candidate under repair
	scrCore    []cnf.Lit // Gk's or patchRow's failed-assumption core
	scrSupport []cnf.Var
	scrEval    cnf.Assignment // evalAtSigma's σ[X] ∪ σ[Y] view
	scrSofts   []maxsat.Soft
	scrSoftVar []cnf.Var
	scrSoftLit []cnf.Lit // flat backing for the unit soft clauses
	scrRowKey  []byte    // patchRow's (yk, σ[Hk]) key

	// rowPatched records, per (yk, σ[Hk]) pair that patchRow repaired at a
	// counterexample on that row, whether the patch set fk to 1 there; a
	// later patch of the pair the other way is an oscillation.
	rowPatched map[string]bool

	// Persistent FindCandi oracle: ϕ stays loaded; per-counterexample MaxSAT
	// machinery lives in clause groups released after each query.
	candi       *maxsat.Incremental
	candiSolver *sat.Solver // candi's base solver, for oracle accounting

	// What preprocessing found, for the sampler's exact path: the unates'
	// constants as literals, and the gate definitions in declaration order.
	unates []cnf.Lit
	gates  []sampler.Def

	sigma sampleMatrix // training set Σ, packed by the sample phase

	// extraOracle counts solver calls outside the persistent solvers: the
	// tautology check's fresh solver, the preprocessing unate checks, and
	// the sampler's draws.
	extraOracle int64

	stats Stats

	// testOnCounterexample, when non-nil, observes every counterexample δ
	// verify returns, before the loop extends it. Test instrumentation
	// only; nil in production.
	testOnCounterexample func(delta cnf.Assignment)
	// testSolveHook, when non-nil, is installed by newSolver on every solver
	// built after it is set. Test instrumentation only; nil in production.
	testSolveHook sat.SolveHook
}

// oracleCount totals every SAT/MaxSAT solver call issued so far: the
// persistent solvers report their own lifetime Solve counts, everything
// else is accumulated in extraOracle. Phase boundaries snapshot it to
// attribute calls to phases.
func (e *Engine) oracleCount() int64 {
	n := e.extraOracle
	for _, s := range []*sat.Solver{e.phiSolver, e.verifySolver, e.candiSolver} {
		if s != nil {
			n += s.Stats().Solves
		}
	}
	return n
}

// satStats combines the persistent solvers' lifetime counters for Stats.SAT.
// The tautology check's solver and the preprocessing unate solver are not
// folded in — their call counts already land in OracleCalls via
// extraOracle.
func (e *Engine) satStats() sat.Stats {
	var st sat.Stats
	for _, s := range []*sat.Solver{e.phiSolver, e.verifySolver, e.candiSolver} {
		if s != nil {
			st.Accumulate(s.Stats())
		}
	}
	return st
}

// Synthesize runs Manthan3 on the instance. ctx cancels the run promptly:
// it is threaded into every SAT oracle (polled inside Solve calls) and
// checked at every loop boundary; a canceled run returns ErrCanceled, an
// expired ctx deadline returns ErrBudget. A nil ctx means no cancellation.
func Synthesize(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return newEngine(ctx, in, opts.withDefaults()).synthesize()
}

// newEngine builds the engine state for one run, with ϕ loaded into the
// persistent ϕ-solver.
func newEngine(ctx context.Context, in *dqbf.Instance, opts Options) *Engine {
	e := &Engine{
		ctx:   ctx,
		in:    in,
		opts:  opts,
		b:     boolfunc.NewBuilder(),
		funcs: make(map[cnf.Var]boolfunc.Node),
		fixed: make(map[cnf.Var]bool),
		deps:  make(map[cnf.Var]map[cnf.Var]bool),
		dirty: make(map[cnf.Var]bool),
	}
	e.up = make(map[cnf.Var]map[cnf.Var]bool)
	for _, y := range in.Exist {
		e.deps[y] = make(map[cnf.Var]bool)
		e.up[y] = make(map[cnf.Var]bool)
	}
	e.phiSolver = e.newPhiSolver()
	return e
}

// synthesize runs the phase pipeline and assembles the result. It is the
// run's one panic boundary: a panic in any phase becomes ErrInternal.
func (e *Engine) synthesize() (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v\n%s", ErrInternal, p, debug.Stack())
		}
	}()
	in := e.in
	// Trivial cases: no existentials — valid iff ϕ is a tautology. The one
	// oracle call is reported as a verify-repair phase so even this path
	// honors the phase-telemetry contract (every success fills Phases).
	if len(in.Exist) == 0 {
		rec := backend.NewPhaseRecorder()
		rec.Begin(backend.PhaseVerifyRepair)
		neg := cnf.New(in.Matrix.NumVars)
		in.Matrix.NegationInto(neg)
		s := e.newSolver()
		s.AddFormula(neg)
		e.extraOracle++
		st := s.Solve()
		rec.AddOracle(1)
		switch st {
		case sat.Unsat:
			e.stats.Phases = rec.Phases()
			e.stats.OracleCalls = e.oracleCount()
			e.stats.SAT = e.satStats()
			return &Result{Vector: dqbf.NewFuncVector(e.b), Stats: e.stats}, nil
		case sat.Sat:
			return nil, ErrFalse
		default:
			return nil, e.oracleUnknown(s, "tautology check")
		}
	}

	// ϕ itself must be satisfiable for sampling; if not, the instance is
	// False (a fortiori no functions exist) unless it has no universals and
	// empty matrix subtleties — ¬SAT ϕ means some X assignment (all of them)
	// falsifies every completion.
	if st := e.phiSolver.Solve(); st == sat.Unsat {
		return nil, ErrFalse
	} else if st == sat.Unknown {
		return nil, e.oracleUnknown(e.phiSolver, "initial satisfiability check")
	}

	// The synthesis pipeline: an ordered slice of named phases over the
	// Engine's shared state. Each executed phase is timed and its oracle
	// calls attributed by snapshotting oracleCount at the boundaries; the
	// resulting PhaseStats land in Stats.Phases in execution order.
	pipeline := []struct {
		name string
		run  func() error
	}{
		{backend.PhasePreprocess, e.preprocess},
		{backend.PhaseSample, e.samplePhase},
		{backend.PhaseLearn, e.learnPhase},
		{backend.PhaseVerifyRepair, e.verifyRepair},
	}
	rec := backend.NewPhaseRecorder()
	for _, p := range pipeline {
		if err := e.interrupted(); err != nil {
			return nil, err
		}
		rec.Begin(p.name)
		before := e.oracleCount()
		err := p.run()
		rec.AddOracle(e.oracleCount() - before)
		rec.Finish()
		if err != nil {
			return nil, err
		}
	}
	e.stats.Phases = rec.Phases()
	e.stats.OracleCalls = e.oracleCount()
	e.stats.SAT = e.satStats()

	vec, err := e.substitute()
	if err != nil {
		return nil, err
	}
	e.stats.LearnedNodes = e.b.Size()
	return &Result{Vector: vec, Stats: e.stats}, nil
}

// verifyRepair is the verify-repair phase: the counterexample-guided loop
// of Algorithm 1, lines 9-18.
func (e *Engine) verifyRepair() error {
	for iter := 0; ; iter++ {
		if iter >= e.opts.MaxRepairIterations {
			return fmt.Errorf("%w: %d repair iterations", ErrBudget, iter)
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		cex, status, err := e.verify()
		if err != nil {
			return err
		}
		if status == sat.Unsat {
			return nil // f is a Henkin vector
		}
		// Extend δ[X] to a model of ϕ; UNSAT means the instance is False.
		sigma, ok, err := e.extendCounterexample(cex)
		if err != nil {
			return err
		}
		if !ok {
			return ErrFalse
		}
		e.stats.RepairIterations++
		progressed, err := e.repair(sigma)
		if err != nil {
			return err
		}
		e.tracef("repair iteration %d: %d candidates repaired so far",
			e.stats.RepairIterations, e.stats.CandidatesRepaired)
		if !progressed {
			return ErrIncomplete
		}
	}
}

// interrupted maps the engine context's state onto the sentinel errors:
// nil while the context is live, ErrCanceled after cancellation, ErrBudget
// after a deadline expiry. The ctx error stays in the wrapped chain.
func (e *Engine) interrupted() error {
	err := e.ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrBudget, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// oracleUnknown converts an Unknown status from a SAT oracle into the
// matching sentinel: cancellation if the solver stopped on a canceled
// context, budget exhaustion otherwise (conflict budget or ctx deadline).
// The corresponding context error joins the chain so errors.Is works with
// either vocabulary.
func (e *Engine) oracleUnknown(s *sat.Solver, what string) error {
	switch s.StopCause() {
	case sat.StopCanceled:
		return fmt.Errorf("%w: %s: %w", ErrCanceled, what, context.Canceled)
	case sat.StopDeadline:
		return fmt.Errorf("%w: %s: %w", ErrBudget, what, context.DeadlineExceeded)
	default:
		return fmt.Errorf("%w: %s (conflict budget)", ErrBudget, what)
	}
}

func (e *Engine) newSolver() *sat.Solver {
	s := sat.New()
	s.SetConflictBudget(e.opts.SATConflictBudget)
	s.SetContext(e.ctx)
	s.SetSolveHook(e.testSolveHook)
	return s
}

// newPhiSolver returns a fresh solver with ϕ loaded.
func (e *Engine) newPhiSolver() *sat.Solver {
	s := e.newSolver()
	s.AddFormula(e.in.Matrix)
	return s
}

// findOrder computes Order, a linear extension of the partial order induced
// by deps: if yi ∈ deps[yj] (yi depends on yj) then yi precedes yj.
func (e *Engine) findOrder() {
	// deps[y] holds the variables that depend on y; each must precede y.
	// Repeated sweeps in declaration order give a deterministic extension.
	placed := make(map[cnf.Var]bool)
	var order []cnf.Var
	for len(order) < len(e.in.Exist) {
		progress := false
		for _, y := range e.in.Exist {
			if placed[y] {
				continue
			}
			// y can be placed when every var depending on y is placed.
			ready := true
			for dep := range e.deps[y] {
				if !placed[dep] {
					ready = false
					break
				}
			}
			if ready {
				placed[y] = true
				order = append(order, y)
				progress = true
			}
		}
		if !progress {
			// Cycle (should not occur by construction): fall back to
			// declaration order for the remainder.
			for _, y := range e.in.Exist {
				if !placed[y] {
					placed[y] = true
					order = append(order, y)
				}
			}
		}
	}
	e.order = order
	e.orderIdx = make(map[cnf.Var]int, len(order))
	for i, y := range order {
		e.orderIdx[y] = i
	}
}

// substitute expands candidate functions so each is expressed purely over its
// Henkin dependencies (Algorithm 1, line 19), then validates compliance.
func (e *Engine) substitute() (*dqbf.FuncVector, error) {
	fv := dqbf.NewFuncVector(e.b)
	final := make(map[cnf.Var]boolfunc.Node, len(e.order))
	// Functions may reference Y variables that appear later in Order;
	// process in reverse so referenced functions are finalized first.
	for i := len(e.order) - 1; i >= 0; i-- {
		y := e.order[i]
		f := e.funcs[y]
		subst := make(map[cnf.Var]boolfunc.Node)
		e.scrSupport = e.b.AppendSupport(e.scrSupport[:0], f)
		for _, v := range e.scrSupport {
			if g, ok := final[v]; ok {
				subst[v] = g
			}
		}
		if len(subst) > 0 {
			f = e.b.Substitute(f, subst)
		}
		final[y] = f
		fv.Funcs[y] = f
	}
	if viol := fv.DependencyViolations(e.in); len(viol) > 0 {
		return nil, fmt.Errorf("%w: dependency violations after substitution: %v", ErrInternal, viol)
	}
	return fv, nil
}

// setFunc installs f as y's candidate and marks its verification clause
// group stale. Every candidate mutation after learning must go through here
// so the persistent verify solver re-encodes exactly the changed candidates.
func (e *Engine) setFunc(y cnf.Var, f boolfunc.Node) {
	if e.funcs[y] == f {
		return
	}
	e.funcs[y] = f
	e.dirty[y] = true
}

// buildVerifySolver constructs the persistent verification solver: the
// static part ¬ϕ(X,Y′) is loaded once as plain clauses, then every
// candidate's Y′ ↔ f encoding is added as a releasable clause group.
func (e *Engine) buildVerifySolver() {
	e.stats.VerifySolversBuilt++
	ef := cnf.New(e.in.Matrix.NumVars)
	e.prime = e.addNegatedCopy(ef)

	e.verifySolver = e.newSolver()
	e.verifySolver.AddFormula(ef)
	// Once X is assigned, propagation assigns every other variable of this
	// solver (see the verifySolver bullet of the package comment), so the
	// search branches on X alone.
	e.verifySolver.RestrictBranching(e.in.Univ)
	// ef stays on as the solver's variable allocator: candidate encodings
	// allocate Tseitin variables from it, clauses are transferred and the
	// clause list truncated, and NumVars is re-synced whenever the solver
	// allocates a group activation variable of its own.
	ef.Clauses = ef.Clauses[:0]
	e.verifyEnc = ef

	e.groupOf = make(map[cnf.Var]sat.GroupID, len(e.in.Exist))
	e.encCache.Reset()
	e.mapVar = func(v cnf.Var) cnf.Var {
		if p, ok := e.prime[v]; ok {
			return p
		}
		return v
	}
	for _, y := range e.in.Exist {
		e.groupOf[y] = e.encodeCandidate(y)
	}
	clear(e.dirty)
}

// addNegatedCopy adds ¬ϕ(X,Y′), the static part of the verification solver,
// to f: it allocates from f a primed copy y′ of every existential y, in
// declaration order, renames Y to Y′ in the matrix and adds the negation
// with its selectors (cnf.NegationInto). It returns the renaming Y → Y′.
func (e *Engine) addNegatedCopy(f *cnf.Formula) map[cnf.Var]cnf.Var {
	prime := make(map[cnf.Var]cnf.Var, len(e.in.Exist))
	for _, y := range e.in.Exist {
		prime[y] = f.NewVar()
	}
	renamed := cnf.New(f.NumVars)
	var nc []cnf.Lit
	for _, c := range e.in.Matrix.Clauses {
		nc = nc[:0]
		for _, l := range c {
			if p, ok := prime[l.Var()]; ok {
				nc = append(nc, cnf.MkLit(p, l.IsPos()))
			} else {
				nc = append(nc, l)
			}
		}
		renamed.AddClause(nc...)
	}
	renamed.NumVars = f.NumVars
	renamed.NegationInto(f)
	return prime
}

// encodeCandidate encodes Y′y ↔ fy (function-internal Y references mapped to
// primed copies) into the persistent verification solver and returns the
// releasable group tying them together. The Tseitin definitions of fy's DAG
// nodes are added as PERMANENT clauses through a persistent node → literal
// cache: repairs rewrite candidates by wrapping the previous function
// (strengthen/weaken), so the hash-consed DAG shares almost all nodes with
// the already-encoded version and each re-encode pays only for the new
// nodes. Definitions are pure (they constrain only their own fresh output
// variables), so they stay sound when the candidate changes; only the
// two-clause equivalence Y′y ↔ root must be swapped, and that is all the
// releasable group contains.
func (e *Engine) encodeCandidate(y cnf.Var) sat.GroupID {
	ef := e.verifyEnc
	ef.Clauses = ef.Clauses[:0]
	out := e.b.ToCNF(e.funcs[y], ef, boolfunc.CNFOptions{VarFor: e.mapVar, Cache: &e.encCache})
	e.verifySolver.EnsureVars(ef.NumVars)
	e.verifySolver.AddClauses(ef.Clauses)
	ef.Clauses = ef.Clauses[:0]
	p := cnf.PosLit(e.prime[y])
	e.grpBuf[0] = append(e.grpBuf[0][:0], p.Neg(), out)
	e.grpBuf[1] = append(e.grpBuf[1][:0], p, out.Neg())
	e.grpCls[0], e.grpCls[1] = cnf.Clause(e.grpBuf[0]), cnf.Clause(e.grpBuf[1])
	gid := e.verifySolver.AddClauseGroup(e.grpCls[:])
	// The group's activation variable was allocated from the solver's space;
	// sync the formula's counter so future Tseitin variables don't collide.
	ef.NumVars = e.verifySolver.NumVars()
	return gid
}

// verify decides E(X,Y′) = ¬ϕ(X,Y′) ∧ (Y′ ↔ f) on the persistent
// verification solver, first re-encoding the clause groups of candidates
// repaired since the previous call. It returns the model when E is
// satisfiable (candidates are wrong somewhere).
func (e *Engine) verify() (model cnf.Assignment, status sat.Status, err error) {
	e.stats.VerifyCalls++
	if e.verifySolver == nil {
		e.buildVerifySolver()
	} else if len(e.dirty) > 0 {
		// Deterministic order: iterate declaration order, not the map.
		for _, y := range e.in.Exist {
			if !e.dirty[y] {
				continue
			}
			e.verifySolver.ReleaseGroup(e.groupOf[y])
			e.groupOf[y] = e.encodeCandidate(y)
			e.stats.CandidateReencodes++
		}
		clear(e.dirty)
	}
	switch st := e.verifySolver.Solve(); st {
	case sat.Unsat:
		return nil, sat.Unsat, nil
	case sat.Sat:
		// Repackage: report X over original vars and candidate outputs on
		// the ORIGINAL Y variable indices, read straight off the solver into
		// the engine-owned buffer (every position a reader touches is
		// rewritten here, so stale entries from earlier rounds are inert).
		if e.delta == nil {
			e.delta = cnf.NewAssignment(e.in.Matrix.NumVars)
		}
		for _, x := range e.in.Univ {
			e.delta.Set(x, e.verifySolver.ModelValue(x))
		}
		for _, y := range e.in.Exist {
			e.delta.Set(y, e.verifySolver.ModelValue(e.prime[y]))
		}
		if e.testOnCounterexample != nil {
			e.testOnCounterexample(e.delta)
		}
		return e.delta, sat.Sat, nil
	default:
		return nil, sat.Unknown, e.oracleUnknown(e.verifySolver, "verification SAT call")
	}
}

// counterexample bundles σ: the X assignment, a genuine completion π[Y], and
// the candidate outputs δ[Y′].
type counterexample struct {
	x      cnf.Assignment // over Univ
	y      cnf.Assignment // π[Y]: a completion making ϕ true
	yPrime cnf.Assignment // δ[Y′]: current candidate outputs (indexed by y)
}

// extendCounterexample checks ϕ(X,Y) ∧ (X ↔ δ[X]); UNSAT proves the instance
// False (ok=false). On SAT it assembles σ = π[X] + π[Y] + δ[Y′].
func (e *Engine) extendCounterexample(delta cnf.Assignment) (*counterexample, bool, error) {
	assumps := e.scrAssumps[:0]
	for _, x := range e.in.Univ {
		assumps = append(assumps, cnf.MkLit(x, delta.Get(x) == cnf.True))
	}
	e.scrAssumps = assumps
	switch st := e.phiSolver.SolveAssume(assumps); st {
	case sat.Unsat:
		return nil, false, nil
	case sat.Sat:
		// σ lives in engine-owned buffers reused across rounds: readers only
		// touch the Univ positions of x and the Exist positions of y/yPrime,
		// all rewritten below.
		cx := &e.cex
		if cx.x == nil {
			n := e.in.Matrix.NumVars
			cx.x = cnf.NewAssignment(n)
			cx.y = cnf.NewAssignment(n)
			cx.yPrime = cnf.NewAssignment(n)
		}
		for _, x := range e.in.Univ {
			cx.x.Set(x, delta.Get(x))
		}
		for _, y := range e.in.Exist {
			cx.y.Set(y, e.phiSolver.ModelValue(y))
			cx.yPrime.Set(y, delta.Get(y))
		}
		return cx, true, nil
	default:
		return nil, false, e.oracleUnknown(e.phiSolver, "counterexample extension")
	}
}

// recordUse registers that yi's candidate now references yk (directly), and
// restores the transitive closure of deps/up: yi and all of yi's dependents
// become dependents of yk and of everything yk references.
func (e *Engine) recordUse(yi, yk cnf.Var) {
	targets := []cnf.Var{yk}
	for t := range e.up[yk] {
		//lint:ignore determorder targets only feeds commutative set writes below; order never escapes
		targets = append(targets, t)
	}
	newDependents := []cnf.Var{yi}
	for d := range e.deps[yi] {
		//lint:ignore determorder newDependents only feeds commutative set writes below; order never escapes
		newDependents = append(newDependents, d)
	}
	for _, t := range targets {
		e.up[yi][t] = true
		for _, d := range newDependents {
			e.deps[t][d] = true
		}
	}
	// Everything that depends on yi also now references yk's closure.
	for d := range e.deps[yi] {
		for _, t := range targets {
			e.up[d][t] = true
		}
	}
}
