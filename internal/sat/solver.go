// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// in the MiniSat/Glucose lineage: two-watched-literal propagation, first-UIP
// conflict analysis with recursive clause minimization, VSIDS branching,
// phase saving, glue-aware (LBD) learnt-clause management in a three-tier
// database, adaptive (LBD moving average) restarts, solving under
// assumptions, and extraction of failed-assumption cores. There is one
// search configuration: New builds every solver with the same tuned
// constants, which live next to the code that uses them. Every clause the
// solver derives, a learnt clause or a level-0 shortening, is a
// reverse-unit-propagation (RUP) consequence of the clauses before it; the
// one other addition is the unit ReleaseGroup asserts on an activation
// variable that no clause contains negated.
//
// It replaces the PicoSAT/CryptoMiniSat oracles used by the Manthan3 paper.
// Unsatisfiable cores are reported over assumption literals, which is exactly
// how Manthan3 consumes cores: the unit clauses of the repair formula Gk are
// passed as assumptions and the core names the units responsible for
// infeasibility.
//
// # File map
//
// The solver is split into focused files:
//
//	solver.go     state, public API, arena storage, clause/group installation
//	propagate.go  two-watched-literal unit propagation
//	analyze.go    first-UIP conflict analysis, LBD computation, minimization
//	reduce.go     the three-tier learnt database and top-level simplification
//	restart.go    the adaptive (EMA + trail-blocking) restart policy
//	search.go     the CDCL driver loop, decision heuristics, stop conditions
//
// # Clause arena
//
// Clauses live in a single flat arena ([]uint32); a clause reference (cref)
// is a uint32 word offset into that buffer, and crefUndef (all ones) plays
// the role of a nil pointer. The layout of a clause at offset c is:
//
//	arena[c]      header: bit 0 = learnt, bit 1 = relocated (GC forwarding),
//	              bits 2..31 = number of literals
//	arena[c+1]    float32 activity bits (learnt clauses only)
//	arena[c+2]    glue metadata (learnt clauses only): bits 0..25 = LBD,
//	              bits 26..27 = tier, bit 28 = used since the last reduceDB
//	arena[c+…]    the literals, one lit code per word
//
// Literal codes are the usual 2v / 2v+1 encoding (see lit below). Storing
// clauses contiguously removes per-clause heap objects entirely: after
// AddFormula the solver performs no clause allocations, propagation touches
// sequential memory, and the GC never scans clause bodies (the arena holds no
// pointers).
//
// # Watch lists
//
// Watch lists live in a second flat arena: watchArena is one pointer-free
// []watch and wspans[q] = {off, n, cap} is literal q's list — the watchers
// of clauses in which ¬q is watched, visited when q becomes true. Each
// watch packs the clause cref and a binary-clause flag into one word
// (crb = cref<<1 | bin) next to a blocker literal whose truth lets the
// visit skip the clause body. For binary clauses the blocker IS the other
// literal, so propagating a binary clause never reads the arena at all: the
// watch entry alone decides between skip, enqueue, and conflict. A list
// that outgrows its span relocates to the arena tail with doubled capacity
// (watchAppend); the dead slots are accounted in watchWaste and reclaimed
// by a full re-carve (compactWatches) alongside clause-arena GC. Compared
// to per-literal []watch slices this removes one heap object and slice
// header per literal: bulk loading carves every list from one allocation
// (reserveWatches), and the GC neither scans watcher memory nor takes
// write barriers on watch moves.
//
// # Glue tiers
//
// Every learnt clause carries its LBD ("literal block distance", or glue):
// the number of distinct decision levels among its literals at learning
// time, recomputed whenever the clause participates in conflict analysis and
// kept at the minimum observed. Low-glue clauses connect few decision levels
// and are empirically the ones worth keeping. The learnt database is three
// tiers keyed on LBD (see reduce.go): a core tier (LBD ≤ coreLBD) that is
// never deleted, a mid tier (LBD ≤ midLBD) whose clauses must keep
// participating in conflicts to stay (stale ones are demoted), and a local
// tier that reduceDB aggressively halves by activity. Clause
// re-tiering happens during reduceDB from the recorded LBD, so an improved
// clause is promoted and never deleted out of turn.
//
// # Reclamation
//
// reduceDB and top-level simplification free clauses by accounting their
// words as wasted; when more than 20% of the arena is dead, the live clauses
// are compacted into a fresh buffer and every cref (clause lists, watch
// lists, reason slots) is rewritten through per-clause forwarding offsets.
// Solver.Stats reports arena size, wasted words, and compaction count.
//
// # Clause groups
//
// AddClauseGroup installs a batch of clauses guarded by a fresh activation
// variable s: each clause c is stored as (c ∨ s), and ¬s is passed as a
// standing assumption on every subsequent Solve/SolveAssume call, so the
// group behaves exactly like ordinary clauses while active. ReleaseGroup
// detaches the group's clauses and frees their words into the arena's wasted
// account, then fixes s true at the top level: any learnt clause that
// resolved a group clause contains s positively (s was a falsified
// assumption when the learnt was derived, and minimization can never drop an
// assumption literal — its variable has no reason clause), so fixing s true
// permanently satisfies those learnts and the next top-level simplification
// reclaims them. This makes incremental re-encoding sound: callers swap out
// one group's clauses without invalidating the solver's remaining learnt
// state. Group clauses live outside the learnt tiers and the problem-clause
// list, so neither reduceDB nor simplifyDB ever frees or demotes them; only
// ReleaseGroup does. Core never reports activation literals.
//
// # Branching restriction
//
// RestrictBranching is MiniSat's per-variable decision flag as one call:
// only the given variables enter the VSIDS heap, every other variable
// (including ones allocated later) is assigned by propagation or as an
// assumption. It suits incremental queries over circuit encodings whose
// inputs define everything else: the heap then holds the inputs alone,
// instead of every encoding variable popped and reinserted on every query.
// The search stays complete whatever the caller promises. With the heap
// empty, every decision variable is assigned; after conflict-free
// propagation a clause with no true literal has both watched literals
// unassigned, so they are non-decision variables. The search looks through
// those variables' watch lists, branches on one that sits in such a clause,
// and reports Sat only when every clause has a true literal, so the trail
// extends to a model whatever values the unassigned variables take.
//
// The package is under the determinism contract, without exceptions: every
// answer, model, core, and Stats counter is bit-identical across runs (see
// internal/analysis).
//
//lint:deterministic
package sat

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cnf"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	// Unknown means the solver gave up (budget or deadline exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; see Model.
	Sat
	// Unsat means the formula (under the given assumptions) is unsatisfiable.
	Unsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// StopCause explains why the most recent Solve/SolveAssume call returned
// Unknown: the per-call conflict budget ran out, the context's deadline
// expired, or the context was canceled outright. Callers that need to
// distinguish "give it more budget" from "the caller asked us to stop" read
// it via StopCause (or Stats.LastStop) after an Unknown result.
type StopCause int

// Stop causes.
const (
	// StopNone: the last Solve call did not stop early.
	StopNone StopCause = iota
	// StopConflictBudget: the per-call conflict budget was exhausted.
	StopConflictBudget
	// StopDeadline: the solver's context reached its deadline.
	StopDeadline
	// StopCanceled: the solver's context was canceled.
	StopCanceled
)

// String names the stop cause.
func (c StopCause) String() string {
	switch c {
	case StopConflictBudget:
		return "conflict-budget"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	}
	return "none"
}

// internal literal code: variable v (1-based) has codes 2v (positive) and
// 2v+1 (negative). Code 0/1 are unused.
type lit int32

func toLit(l cnf.Lit) lit {
	if l > 0 {
		return lit(2 * l)
	}
	return lit(-2*l + 1)
}

func fromLit(p lit) cnf.Lit {
	v := cnf.Lit(p >> 1)
	if p&1 == 1 {
		return -v
	}
	return v
}

func (p lit) neg() lit    { return p ^ 1 }
func (p lit) varIdx() int { return int(p >> 1) }
func (p lit) sign() bool  { return p&1 == 1 } // true = negative literal
func mkLit(v int, neg bool) lit {
	p := lit(2 * v)
	if neg {
		p++
	}
	return p
}

// cref is a clause reference: a word offset into the solver's arena.
type cref uint32

const (
	crefUndef   cref = ^cref(0) // "no clause"
	reasonUndef      = crefUndef

	hdrLearnt    uint32 = 1 << 0 // clause is learnt (has activity + meta words)
	hdrReloc     uint32 = 1 << 1 // clause was moved during compaction
	hdrSizeShift        = 2
)

// watch is one entry of a flat watch list: the clause reference with a
// binary-clause flag packed into the low bit, plus a blocker literal.
type watch struct {
	crb     uint32 // cref<<1 | isBinary
	blocker lit
}

func mkWatch(c cref, blocker lit, bin bool) watch {
	crb := uint32(c) << 1
	if bin {
		crb |= 1
	}
	return watch{crb: crb, blocker: blocker}
}

func (w watch) cref() cref  { return cref(w.crb >> 1) }
func (w watch) isBin() bool { return w.crb&1 != 0 }

// watchSpan is one literal's watch list: the window
// watchArena[off : off+n], with room up to off+cap. The zero span is an
// empty list with no reserved room (first append relocates it).
type watchSpan struct {
	off, n, cap int32
	_           int32 // pad to 16 bytes: keeps the off+n pair's 8-byte load aligned
}

// watchAppend adds w to literal q's watch list, relocating the list to the
// arena tail when its span is full. Returns true when the arena slice
// changed (longer, or a reallocated backing), so propagate can refresh a
// local slice header.
func (s *Solver) watchAppend(q lit, w watch) bool {
	sp := &s.wspans[q]
	if sp.n < sp.cap {
		s.watchArena[sp.off+sp.n] = w
		sp.n++
		return false
	}
	newCap := int(sp.cap) * 2
	if newCap < 4 {
		newCap = 4
	}
	off := len(s.watchArena)
	if int(sp.off)+int(sp.cap) == off && off+newCap-int(sp.cap) <= cap(s.watchArena) {
		// The span already ends at the arena tail: grow it in place —
		// no copy, no stranded slots.
		s.watchArena = s.watchArena[:int(sp.off)+newCap]
		s.watchArena[sp.off+sp.n] = w
		sp.cap = int32(newCap)
		sp.n++
		return true
	}
	if need := off + newCap; need > cap(s.watchArena) {
		grown := make([]watch, off, max(2*cap(s.watchArena), need))
		copy(grown, s.watchArena)
		s.watchArena = grown
	}
	s.watchArena = s.watchArena[:off+newCap]
	copy(s.watchArena[off:], s.watchArena[sp.off:sp.off+sp.n])
	s.watchArena[off+int(sp.n)] = w
	s.watchWaste += int(sp.cap)
	sp.off = int32(off)
	sp.cap = int32(newCap)
	sp.n++
	return true
}

// watchList returns literal p's current watch list as a live sub-slice of
// the watch arena. The slice must not be held across watchAppend.
func (s *Solver) watchList(p lit) []watch {
	sp := s.wspans[p]
	return s.watchArena[sp.off : sp.off+sp.n]
}

// compactWatches re-carves every span tightly (small slack) into a fresh
// backing, dropping the slots retired by span relocations.
func (s *Solver) compactWatches() {
	const slack = 4
	total := 0
	for i := range s.wspans {
		if s.wspans[i].n > 0 {
			total += int(s.wspans[i].n) + slack
		}
	}
	fresh := make([]watch, total)
	off := 0
	for i := range s.wspans {
		sp := &s.wspans[i]
		if sp.n == 0 {
			*sp = watchSpan{}
			continue
		}
		copy(fresh[off:], s.watchArena[sp.off:sp.off+sp.n])
		sp.off = int32(off)
		sp.cap = sp.n + slack
		off += int(sp.cap)
	}
	s.watchArena = fresh
	s.watchWaste = 0
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New. A
// Solver is not safe for concurrent use.
type Solver struct {
	numVars int
	ok      bool // false once a top-level conflict is derived

	// The per-conflict minimization budget (defaultMinimizeBudget), a field
	// so that tests can vary it.
	minimizeBudget int

	arena    []uint32 // flat clause store; see the package comment for layout
	wasted   int      // dead words in arena, eligible for compaction
	arenaGCs int64    // number of compactions performed

	clauses []cref

	// The three-tier learnt database (see reduce.go): each learnt clause
	// lives in exactly the list matching the tier bits of its meta word.
	learntsCore  []cref
	learntsMid   []cref
	learntsLocal []cref

	// Watch lists live in ONE pointer-free backing array, addressed by
	// per-literal spans: no per-list heap object, no write barrier when a
	// watcher moves between lists, and propagation walks memory the GC never
	// scans. A list that outgrows its span relocates to the arena tail
	// (geometric growth, so a list's retired slots never exceed its live
	// capacity); garbageCollect re-carves everything tightly.
	watchArena []watch
	wspans     []watchSpan // indexed by lit code
	watchWaste int         // dead slots left behind by span relocations

	assigns  []int8  // per literal code: lTrue/lFalse/lUndef (both phases kept)
	level    []int32 // decision level of assignment
	reason   []cref  // antecedent clause (reasonUndef = none)
	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	varDecay float64
	heap     varHeap
	phase    []bool // saved phase: true means last assigned true

	// The branching restriction (RestrictBranching). decision[v] is MiniSat's
	// decision flag: only decision variables enter the heap. It is set for
	// every variable until the first RestrictBranching call, after which
	// restricted keeps it clear for every variable allocated later.
	decision   []bool
	restricted bool

	claInc   float64
	claDecay float64

	seen        []bool
	analyzeSt   []lit     // scratch: learnt clause under construction
	minimizeTmp []lit     // scratch: minimization snapshot of the learnt tail
	minStack    []lit     // scratch: recursive-minimization DFS stack
	minMark     []byte    // per var: markImplied/markPoison during minimization
	minClear    []int32   // vars whose minMark must be reset after analyze
	minBudget   int       // remaining reason expansions for this conflict
	addTmp      []lit     // scratch: AddClause normalization
	groupTmp    []cnf.Lit // scratch: AddClauseGroup clause-plus-selector buffer
	watchCnt    []int32   // scratch: reserveWatches per-literal counts (all-zero between calls)
	demoteTmp   []cref    // scratch: reduceDB demotion buffer
	lbdStamps   []uint32  // per decision level: last stamp seen (LBD counting)
	lbdStamp    uint32

	assumptions []lit
	conflict    []lit // failed assumptions (negated form: lits that must flip)

	groups      []clauseGroup
	crefsFree   [][]cref // recycled cref backings from released groups
	standing    []lit    // ¬activation for every live group; assumed on each Solve
	isSel       []bool   // per var: true when the var is a group activation var
	groupsFreed int64

	rng           *rand.Rand // lazily built: seeding is ~µs and most solvers never branch randomly
	rngSeed       int64
	randVarFreq   float64 // probability of a random branching variable
	randPhaseFreq float64 // probability of a random phase at a decision

	conflictBudget int64           // -1 = unlimited; counted per Solve call
	budgetStart    int64           // s.conflicts at the start of the current Solve call
	ctx            context.Context // nil = never interrupted
	stopCause      StopCause       // why the last Solve returned Unknown
	checkCnt       int64
	solveHook      SolveHook // nil outside tests

	// Restart policy state (restart.go).
	conflictsSinceRestart int64
	emaSeeded             bool
	emaFastLBD            float64
	emaSlowLBD            float64
	emaTrail              float64

	solves          int64
	conflicts       int64
	propagations    int64
	decisions       int64
	restarts        int64
	blockedRestarts int64
	learntLits      int64
	learntClauses   int64
	lbdSum          int64
	minimizedLits   int64
	reduceDBs       int64
	promotions      int64
	demotions       int64

	maxLearnts    float64
	learntAdjust  float64
	learntAdjCnt  int64
	learntAdjIncr float64

	simpLastTrail int // trail size at the last top-level simplification

	// testOnLearnt, when non-nil, observes every multi-literal learnt clause
	// right after analysis (before backtracking), with the backtrack level.
	// Test instrumentation only; nil in production.
	testOnLearnt func(learnt []lit, btLevel int)
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		ok:             true,
		minimizeBudget: defaultMinimizeBudget,
		varInc:         1,
		varDecay:       0.95,
		claInc:         1,
		claDecay:       0.999,
		conflictBudget: -1,
		maxLearnts:     0,
		learntAdjust:   100,
		learntAdjCnt:   100,
		learntAdjIncr:  1.5,
	}
	s.wspans = make([]watchSpan, 2)
	s.assigns = make([]int8, 2)
	s.level = make([]int32, 1)
	s.reason = []cref{reasonUndef}
	s.activity = make([]float64, 1)
	s.phase = make([]bool, 1)
	s.seen = make([]bool, 1)
	s.heap.activity = &s.activity
	return s
}

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() cnf.Var {
	s.EnsureVars(s.numVars + 1)
	return cnf.Var(s.numVars)
}

// growTo extends s to length n with zero values (no-op if already long
// enough).
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// EnsureVars grows the variable table to cover variables 1..n. All per-var
// and per-literal tables are grown in a single step (not per NewVar), and
// trail capacity is reserved up front so enqueues never reallocate.
func (s *Solver) EnsureVars(n int) {
	if n <= s.numVars {
		return
	}
	s.wspans = growTo(s.wspans, 2*(n+1))
	s.assigns = growTo(s.assigns, 2*(n+1))
	s.level = growTo(s.level, n+1)
	s.activity = growTo(s.activity, n+1)
	s.phase = growTo(s.phase, n+1)
	s.seen = growTo(s.seen, n+1)
	s.minMark = growTo(s.minMark, n+1)
	s.lbdStamps = growTo(s.lbdStamps, n+1)
	old := len(s.reason)
	s.reason = growTo(s.reason, n+1)
	for i := old; i < len(s.reason); i++ {
		s.reason[i] = reasonUndef
	}
	if cap(s.trail) < n {
		s.trail = slices.Grow(s.trail, n-len(s.trail))
	}
	s.heap.indices = growTo(s.heap.indices, n+1)
	if cap(s.heap.data) < n {
		s.heap.data = slices.Grow(s.heap.data, n-len(s.heap.data))
	}
	s.decision = growTo(s.decision, n+1)
	if !s.restricted {
		for v := s.numVars + 1; v <= n; v++ {
			s.decision[v] = true
			s.heap.insert(v)
		}
	}
	s.numVars = n
}

// RestrictBranching limits the search to branching on vars: every other
// variable, including variables allocated later, is assigned only by
// propagation or as an assumption. A later call replaces the set.
//
// It pays when the set defines the rest of the formula, so that propagation
// assigns every other variable once the set is assigned (see "Branching
// restriction" in the package comment). That is a promise about speed only:
// when the set is exhausted while a clause with no true literal still holds
// an unassigned variable, the search branches on that variable, so answers,
// models and cores never depend on it.
func (s *Solver) RestrictBranching(vars []cnf.Var) {
	s.cancelUntil(0)
	s.restricted = true
	clear(s.decision)
	s.heap.clear()
	for _, x := range vars {
		v := int(x)
		s.EnsureVars(v)
		s.decision[v] = true
		if s.varValue(v) == lUndef && !s.heap.inHeap(v) {
			s.heap.insert(v)
		}
	}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// SetSeed seeds the solver's random source (used for random branching and
// random phases; deterministic by default).
func (s *Solver) SetSeed(seed int64) {
	s.rngSeed = seed
	s.rng = nil
}

// random returns the solver's random source, constructing it on first use.
func (s *Solver) random() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.rngSeed))
	}
	return s.rng
}

// SetRandomVarFreq sets the probability of choosing a random branching
// variable instead of the VSIDS maximum. Used by the sampler.
func (s *Solver) SetRandomVarFreq(p float64) { s.randVarFreq = p }

// SetRandomPhaseFreq sets the probability of choosing a random phase at each
// decision instead of the saved phase. Used by the sampler.
func (s *Solver) SetRandomPhaseFreq(p float64) { s.randPhaseFreq = p }

// PrimePhase sets the saved phase of variable v, steering the polarity of
// future decisions on v (used by the sampler's adaptive bias).
func (s *Solver) PrimePhase(v cnf.Var, phase bool) {
	s.EnsureVars(int(v))
	s.phase[v] = phase
}

// SetConflictBudget limits the number of conflicts for subsequent Solve
// calls; Solve returns Unknown when the budget is exhausted. Negative means
// unlimited.
func (s *Solver) SetConflictBudget(n int64) { s.conflictBudget = n }

// SetContext installs a context checked during subsequent Solve calls: when
// it is canceled or its deadline expires, the running Solve returns Unknown
// promptly and StopCause reports which of the two happened. A nil context
// (the default) means the solver is never interrupted.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

// StopCause reports why the most recent Solve/SolveAssume call returned
// Unknown (StopNone if it did not stop early).
func (s *Solver) StopCause() StopCause { return s.stopCause }

// A SolveHook observes every Solve/SolveAssume call. It runs at the top of
// the call with the 1-based lifetime solve index, before any search. Tests
// install one that panics, to simulate a broken solver on a worker
// goroutine (internal/core) or under an oracle.Pool checkout; production
// code never sets a hook.
type SolveHook func(solveIndex int64)

// SetSolveHook installs h as the solver's test hook; nil (the default)
// removes it.
func (s *Solver) SetSolveHook(h SolveHook) { s.solveHook = h }

// StopCtxErr returns the context error matching the last stop cause —
// context.Canceled or context.DeadlineExceeded when the solver stopped on
// its context, nil when it stopped on the conflict budget (or did not stop).
// Callers wrap it into their own budget/cancellation sentinels so one
// classification rule serves every oracle consumer.
func (s *Solver) StopCtxErr() error {
	switch s.stopCause {
	case StopCanceled:
		return context.Canceled
	case StopDeadline:
		return context.DeadlineExceeded
	}
	return nil
}

// UnknownError builds the error for an Unknown result: the caller's
// sentinel wrapped with a description, plus the stop's context error when
// the solver was interrupted rather than out of conflict budget. One
// classification rule for every oracle consumer that folds deadline and
// cancellation into a single budget-style sentinel; callers with a separate
// cancellation sentinel branch on StopCause directly.
func (s *Solver) UnknownError(sentinel error, what string) error {
	if cause := s.StopCtxErr(); cause != nil {
		return fmt.Errorf("%w: %s interrupted: %w", sentinel, what, cause)
	}
	return fmt.Errorf("%w: %s (conflict budget)", sentinel, what)
}

// Stats holds cumulative solver counters.
type Stats struct {
	Solves       int64 // Solve/SolveAssume calls over the solver's lifetime
	Conflicts    int64
	Propagations int64
	Decisions    int64
	Restarts     int64
	// BlockedRestarts counts adaptive restarts postponed by trail blocking:
	// the LBD average said restart, but the trail was much deeper than its
	// running average, so the search was left to (plausibly) finish.
	BlockedRestarts int64
	LearntLits      int64 // total literals in learnt clauses
	// LearntClauses counts multi-literal learnt clauses allocated into the
	// tier database (unit learnts are enqueued directly and not counted).
	LearntClauses int64
	// LBDSum is the sum of learning-time LBDs over LearntClauses;
	// LBDSum/LearntClauses is the average glue of the run.
	LBDSum int64
	// MinimizedLits counts literals removed from learnt clauses by
	// recursive conflict-clause minimization.
	MinimizedLits int64
	// TierCore/TierMid/TierLocal are the current learnt-tier sizes.
	TierCore  int
	TierMid   int
	TierLocal int
	// Promotions and Demotions count tier moves performed by reduceDB:
	// promotions follow an improved LBD, demotions follow mid-tier
	// staleness.
	Promotions int64
	Demotions  int64
	// ReduceDBs counts learnt-database reductions.
	ReduceDBs   int64
	ArenaWords  int       // current arena length (uint32 words)
	ArenaWasted int       // dead words awaiting compaction
	ArenaGCs    int64     // arena compactions performed
	LiveGroups  int       // clause groups added and not yet released
	GroupsFreed int64     // clause groups released over the solver's lifetime
	LastStop    StopCause // why the last Solve returned Unknown (StopNone otherwise)
}

// Stats reports cumulative solver statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Solves:          s.solves,
		Conflicts:       s.conflicts,
		Propagations:    s.propagations,
		Decisions:       s.decisions,
		Restarts:        s.restarts,
		BlockedRestarts: s.blockedRestarts,
		LearntLits:      s.learntLits,
		LearntClauses:   s.learntClauses,
		LBDSum:          s.lbdSum,
		MinimizedLits:   s.minimizedLits,
		TierCore:        len(s.learntsCore),
		TierMid:         len(s.learntsMid),
		TierLocal:       len(s.learntsLocal),
		Promotions:      s.promotions,
		Demotions:       s.demotions,
		ReduceDBs:       s.reduceDBs,
		ArenaWords:      len(s.arena),
		ArenaWasted:     s.wasted,
		ArenaGCs:        s.arenaGCs,
		LiveGroups:      len(s.standing),
		GroupsFreed:     s.groupsFreed,
		LastStop:        s.stopCause,
	}
}

// Accumulate adds the counters and sizes of o into st, so callers holding
// several solvers can report one combined Stats. LastStop keeps o's value
// when o stopped early (the most recent interruption wins over StopNone).
func (st *Stats) Accumulate(o Stats) {
	st.Solves += o.Solves
	st.Conflicts += o.Conflicts
	st.Propagations += o.Propagations
	st.Decisions += o.Decisions
	st.Restarts += o.Restarts
	st.BlockedRestarts += o.BlockedRestarts
	st.LearntLits += o.LearntLits
	st.LearntClauses += o.LearntClauses
	st.LBDSum += o.LBDSum
	st.MinimizedLits += o.MinimizedLits
	st.TierCore += o.TierCore
	st.TierMid += o.TierMid
	st.TierLocal += o.TierLocal
	st.Promotions += o.Promotions
	st.Demotions += o.Demotions
	st.ReduceDBs += o.ReduceDBs
	st.ArenaWords += o.ArenaWords
	st.ArenaWasted += o.ArenaWasted
	st.ArenaGCs += o.ArenaGCs
	st.LiveGroups += o.LiveGroups
	st.GroupsFreed += o.GroupsFreed
	if o.LastStop != StopNone {
		st.LastStop = o.LastStop
	}
}

// --- arena primitives ---

// maxArenaWords bounds the arena: crefs are packed into 31 bits in watch
// entries (crb = cref<<1 | bin), so growing past 2^31 words would silently
// corrupt watch lists. Fail loudly instead (MiniSat's allocator does too).
const maxArenaWords = int64(1) << 31

// allocClause appends a clause to the arena and returns its cref. Learnt
// clauses get zeroed activity and meta words; the caller tiers them via
// addLearnt.
func (s *Solver) allocClause(lits []lit, learnt bool) cref {
	if int64(len(s.arena))+int64(len(lits))+3 > maxArenaWords {
		panic("sat: clause arena exceeds 2^31 words")
	}
	c := cref(len(s.arena))
	// Grow by doubling, not append's large-slice policy (~1.25×): the learnt
	// database typically outgrows the problem clauses severalfold, and the
	// shallower growth curve would copy the whole arena once per ~quarter of
	// new clauses instead of once per doubling.
	if need := len(s.arena) + len(lits) + 3; need > cap(s.arena) {
		grown := make([]uint32, len(s.arena), max(2*cap(s.arena), need))
		copy(grown, s.arena)
		s.arena = grown
	}
	hdr := uint32(len(lits)) << hdrSizeShift
	if learnt {
		hdr |= hdrLearnt
	}
	s.arena = append(s.arena, hdr)
	if learnt {
		s.arena = append(s.arena, 0, 0) // activity = 0.0, meta = 0
	}
	for _, p := range lits {
		s.arena = append(s.arena, uint32(p))
	}
	return c
}

func (s *Solver) claLearnt(c cref) bool { return s.arena[c]&hdrLearnt != 0 }
func (s *Solver) claSize(c cref) int    { return int(s.arena[c] >> hdrSizeShift) }

// claLits returns the literal window of clause c as a live sub-slice of the
// arena; writes through it mutate the clause. The slice must not be held
// across allocClause or garbageCollect.
func (s *Solver) claLits(c cref) []uint32 {
	hdr := s.arena[c]
	base := int(c) + 1 + int(hdr&hdrLearnt)<<1
	return s.arena[base : base+int(hdr>>hdrSizeShift)]
}

// claWords is the total footprint of clause c in arena words.
func (s *Solver) claWords(c cref) int {
	hdr := s.arena[c]
	return 1 + int(hdr&hdrLearnt)<<1 + int(hdr>>hdrSizeShift)
}

// claSatisfied reports whether some literal of clause c is true.
func (s *Solver) claSatisfied(c cref) bool {
	for _, u := range s.claLits(c) {
		if s.litValue(lit(u)) == lTrue {
			return true
		}
	}
	return false
}

func (s *Solver) claSetSize(c cref, n int) {
	s.arena[c] = s.arena[c]&(1<<hdrSizeShift-1) | uint32(n)<<hdrSizeShift
}

func (s *Solver) claActivity(c cref) float32 {
	return math.Float32frombits(s.arena[c+1])
}

func (s *Solver) claSetActivity(c cref, a float32) {
	s.arena[c+1] = math.Float32bits(a)
}

// freeClause marks the words of c as dead; the space is reclaimed by the next
// compaction.
func (s *Solver) freeClause(c cref) { s.wasted += s.claWords(c) }

// removeClause detaches and frees c, clearing a locked reason slot so no
// assigned variable keeps a cref to freed words.
func (s *Solver) removeClause(c cref) {
	s.detach(c)
	if v := s.lockedVar(c); v >= 0 {
		s.reason[v] = reasonUndef
	}
	s.freeClause(c)
}

// maybeGC compacts the arena when at least 20% of it is dead. Compaction
// walks every watch list (O(vars)), so tiny arenas are left alone: below the
// floor the dead words cost less than the walk.
func (s *Solver) maybeGC() {
	const minWastedWords = 1024
	if s.wasted >= minWastedWords && s.wasted*5 >= len(s.arena) {
		s.garbageCollect()
	}
	// Same idea for the watch arena: span relocations strand dead slots, so
	// re-carve once a third of the arena is retired.
	if s.watchWaste >= 1024 && s.watchWaste*3 >= len(s.watchArena) {
		s.compactWatches()
	}
}

// garbageCollect compacts live clauses into a fresh arena and rewrites every
// cref (watch lists, reason slots, clause lists, tier lists, group lists)
// through forwarding offsets left in the old arena.
func (s *Solver) garbageCollect() {
	to := make([]uint32, 0, len(s.arena)-s.wasted)
	for qi := range s.wspans {
		ws := s.watchList(lit(qi))
		for k := range ws {
			nc := s.relocate(ws[k].cref(), &to)
			ws[k].crb = uint32(nc)<<1 | ws[k].crb&1
		}
	}
	for _, p := range s.trail {
		v := p.varIdx()
		if s.reason[v] != reasonUndef {
			s.reason[v] = s.relocate(s.reason[v], &to)
		}
	}
	for i := range s.clauses {
		s.clauses[i] = s.relocate(s.clauses[i], &to)
	}
	for _, tier := range [][]cref{s.learntsCore, s.learntsMid, s.learntsLocal} {
		for i := range tier {
			tier[i] = s.relocate(tier[i], &to)
		}
	}
	for gi := range s.groups {
		cs := s.groups[gi].crefs
		for i := range cs {
			cs[i] = s.relocate(cs[i], &to)
		}
	}
	s.arena = to
	s.wasted = 0
	s.arenaGCs++
}

// relocate moves clause c into the new arena (or follows its forwarding
// offset if already moved) and returns the new cref.
func (s *Solver) relocate(c cref, to *[]uint32) cref {
	hdr := s.arena[c]
	if hdr&hdrReloc != 0 {
		return cref(s.arena[c+1])
	}
	nc := cref(len(*to))
	n := s.claWords(c)
	*to = append(*to, s.arena[int(c):int(c)+n]...)
	s.arena[c] = hdr | hdrReloc
	s.arena[c+1] = uint32(nc)
	return nc
}

// --- clause database ---

// AddFormula adds every clause of f, growing the variable table as needed.
// The arena, clause list, and watch lists are pre-sized from the formula's
// clause and literal counts so construction performs no incremental growth.
func (s *Solver) AddFormula(f *cnf.Formula) {
	s.EnsureVars(f.NumVars)
	s.AddClauses(f.Clauses)
}

// AddClauses adds a batch of clauses, growing the variable table as needed.
// The arena, clause list, and watch lists are pre-sized from the batch's
// clause and literal counts so bulk loading performs no incremental growth.
func (s *Solver) AddClauses(clauses []cnf.Clause) {
	maxv := s.numVars
	words := 0
	for _, c := range clauses {
		words += len(c) + 1
		for _, l := range c {
			if int(l.Var()) > maxv {
				maxv = int(l.Var())
			}
		}
	}
	s.EnsureVars(maxv)
	s.arena = slices.Grow(s.arena, words)
	s.clauses = slices.Grow(s.clauses, len(clauses))
	s.reserveWatches(clauses)
	for _, c := range clauses {
		s.AddClause(c...)
	}
}

// reserveWatches pre-sizes the watch lists touched by a clause batch: each
// clause of length ≥ 2 watches (almost always) its first two literals.
// Count those per literal, then carve every still-empty list out of ONE
// flat backing array — a per-list allocation per nonempty list dominates
// bulk clause loading otherwise. Each list gets a few slack slots so the
// first learnt attach or propagate-time watch move does not immediately
// force it off the shared backing; capacities are pinned so a list
// overflowing its slot reallocates alone instead of clobbering its
// neighbour. Lists that already hold watches are left to ordinary append
// growth.
func (s *Solver) reserveWatches(clauses []cnf.Clause) {
	const watchSlack = 2
	cnt := growTo(s.watchCnt, len(s.wspans))
	s.watchCnt = cnt
	total := 0
	for _, c := range clauses {
		if len(c) < 2 {
			continue
		}
		for _, l := range c[:2] {
			q := toLit(l).neg()
			if int(q) >= len(cnt) {
				continue
			}
			if cnt[q] == 0 {
				total += watchSlack + 1
			} else {
				total++
			}
			cnt[q]++
		}
	}
	if total == 0 {
		return
	}
	off := len(s.watchArena)
	if need := off + total; need > cap(s.watchArena) {
		grown := make([]watch, off, max(2*cap(s.watchArena), need))
		copy(grown, s.watchArena)
		s.watchArena = grown
	}
	s.watchArena = s.watchArena[:off+total]
	// Second pass carves each still-unreserved list once and resets its
	// count, so the scratch table is all-zero again on return. It walks the
	// count table — one visit per literal index — rather than re-deriving
	// the watched literals clause by clause, which costs another full pass
	// over the batch.
	for q := range cnt {
		if cnt[q] == 0 {
			continue
		}
		sp := &s.wspans[q]
		if sp.cap == 0 {
			sp.off = int32(off)
			sp.cap = int32(cnt[q]) + watchSlack
			off += int(sp.cap)
		}
		cnt[q] = 0
	}
	// Room counted for lists that already had capacity was never carved;
	// return it to the arena tail.
	s.watchArena = s.watchArena[:off]
}

// AddClause adds a clause to the solver. It returns false if the solver is
// already in an unsatisfiable state at level 0 (the clause database is then
// trivially unsatisfiable). Clauses may be added between Solve calls.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	c, ok := s.addClauseCref(lits)
	if c != crefUndef {
		s.clauses = append(s.clauses, c)
	}
	return ok
}

// addClauseCref normalizes and installs a clause, returning the allocated
// cref — crefUndef when the clause was absorbed (already satisfied at level
// 0, tautological, reduced to a unit, or empty) — plus the solver's level-0
// consistency. The caller owns cref bookkeeping: AddClause records it in the
// problem-clause list, AddClauseGroup in the group's own list.
func (s *Solver) addClauseCref(lits []cnf.Lit) (cref, bool) {
	s.cancelUntil(0)
	if !s.ok {
		return crefUndef, false
	}
	// Normalize: sort-dedup and detect tautology / false literals at level 0.
	tmp := s.addTmp[:0]
	for _, l := range lits {
		if int(l.Var()) > s.numVars {
			s.EnsureVars(int(l.Var()))
		}
		p := toLit(l)
		switch s.litValue(p) {
		case lTrue:
			s.addTmp = tmp[:0]
			return crefUndef, true // clause already satisfied at level 0
		case lFalse:
			continue // drop false literal
		}
		dup := false
		for _, q := range tmp {
			if q == p {
				dup = true
				break
			}
			if q == p.neg() {
				s.addTmp = tmp[:0]
				return crefUndef, true // tautology
			}
		}
		if !dup {
			tmp = append(tmp, p)
		}
	}
	s.addTmp = tmp[:0] // retain grown capacity for the next call
	switch len(tmp) {
	case 0:
		s.ok = false
		return crefUndef, false
	case 1:
		s.uncheckedEnqueue(tmp[0], reasonUndef)
		s.ok = s.propagate() == crefUndef
		return crefUndef, s.ok
	}
	c := s.allocClause(tmp, false)
	s.attach(c)
	return c, true
}

// GroupID identifies a releasable clause group created by AddClauseGroup.
type GroupID int

// clauseGroup tracks the clauses guarded by one activation variable.
type clauseGroup struct {
	selVar   int
	crefs    []cref
	released bool
}

// AddClauseGroup installs the clauses as one releasable group: a fresh
// activation variable s is allocated, every clause c is stored as (c ∨ s),
// and ¬s joins the standing assumptions of all subsequent Solve/SolveAssume
// calls, so the group is semantically indistinguishable from plain clauses
// until ReleaseGroup physically removes it. Group clauses are exempt from
// top-level simplification and learnt-DB reduction; only ReleaseGroup frees
// them.
func (s *Solver) AddClauseGroup(clauses []cnf.Clause) GroupID {
	s.cancelUntil(0)
	// Grow the variable table over the incoming clauses first so the
	// activation variable lands above every variable the caller references
	// (callers sync their own variable counters with NumVars afterwards).
	maxv := s.numVars
	for _, c := range clauses {
		for _, l := range c {
			if int(l.Var()) > maxv {
				maxv = int(l.Var())
			}
		}
	}
	s.EnsureVars(maxv)
	selVar := int(s.NewVar())
	s.isSel = growTo(s.isSel, selVar+1)
	s.isSel[selVar] = true
	sel := cnf.PosLit(cnf.Var(selVar))

	id := GroupID(len(s.groups))
	g := clauseGroup{selVar: selVar}
	if n := len(s.crefsFree); n > 0 {
		g.crefs = s.crefsFree[n-1]
		s.crefsFree = s.crefsFree[:n-1]
	}
	for _, c := range clauses {
		buf := append(s.groupTmp[:0], c...)
		buf = append(buf, sel)
		s.groupTmp = buf[:0] // retain grown capacity for the next clause
		if cr, _ := s.addClauseCref(buf); cr != crefUndef {
			g.crefs = append(g.crefs, cr)
		}
	}
	s.groups = append(s.groups, g)
	s.standing = append(s.standing, mkLit(selVar, true)) // ¬sel
	return id
}

// ReleaseGroup detaches and frees every clause of the group (their words go
// to the arena's wasted account, triggering compaction at the usual
// threshold) and fixes the activation variable true at the top level so
// learnt clauses derived from the group become permanently satisfied.
// Releasing an already-released group is a no-op.
func (s *Solver) ReleaseGroup(id GroupID) {
	g := &s.groups[id]
	if g.released {
		return
	}
	s.cancelUntil(0)
	for _, c := range g.crefs {
		s.removeClause(c)
	}
	if cap(g.crefs) > 0 {
		s.crefsFree = append(s.crefsFree, g.crefs[:0])
	}
	g.crefs = nil
	g.released = true
	s.groupsFreed++
	sel := mkLit(g.selVar, false)
	if s.ok && s.litValue(sel) == lUndef {
		s.uncheckedEnqueue(sel, reasonUndef)
		if s.propagate() != crefUndef {
			s.ok = false
		}
	}
	// Drop the group's standing assumption, preserving creation order (the
	// order assumptions are asserted shapes the search; keep it stable).
	// The list is as short as the number of live groups.
	dead := mkLit(g.selVar, true)
	for i, p := range s.standing {
		if p == dead {
			s.standing = append(s.standing[:i], s.standing[i+1:]...)
			break
		}
	}
	s.maybeGC()
}

func (s *Solver) attach(c cref) {
	ls := s.claLits(c)
	p0, p1 := lit(ls[0]), lit(ls[1])
	bin := len(ls) == 2
	s.watchAppend(p0.neg(), mkWatch(c, p1, bin))
	s.watchAppend(p1.neg(), mkWatch(c, p0, bin))
}

func (s *Solver) detach(c cref) {
	ls := s.claLits(c)
	s.removeWatch(lit(ls[0]).neg(), c)
	s.removeWatch(lit(ls[1]).neg(), c)
}

func (s *Solver) removeWatch(p lit, c cref) {
	ws := s.watchList(p)
	for i := range ws {
		if ws[i].cref() == c {
			ws[i] = ws[len(ws)-1]
			s.wspans[p].n--
			return
		}
	}
}

// litValue returns the truth value of literal p. assigns is literal-indexed
// (both phases stored) so this is a single load with no sign branch.
func (s *Solver) litValue(p lit) int8 { return s.assigns[p] }

// varValue returns the truth value of variable v (its positive literal).
func (s *Solver) varValue(v int) int8 { return s.assigns[2*v] }

func (s *Solver) uncheckedEnqueue(p lit, from cref) {
	v := p.varIdx()
	s.assigns[p] = lTrue
	s.assigns[p.neg()] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.phase[v] = !p.sign()
	s.trail = append(s.trail, p)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
	// Decision levels can exceed the variable count: every already-satisfied
	// assumption (duplicates included) gets a dummy level. lbdStamps is
	// indexed by level, so it must cover the deepest level ever created,
	// not just numVars (EnsureVars sizes it by variables only).
	if len(s.trailLim) >= len(s.lbdStamps) {
		s.lbdStamps = growTo(s.lbdStamps, len(s.trailLim)+1)
	}
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		p := s.trail[i]
		v := p.varIdx()
		s.assigns[p] = lUndef
		s.assigns[p.neg()] = lUndef
		s.reason[v] = reasonUndef
		if s.decision[v] && !s.heap.inHeap(v) {
			s.heap.insert(v)
		}
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	if s.qhead > len(s.trail) {
		s.qhead = len(s.trail)
	}
}

// Solve determines satisfiability of the clause database.
func (s *Solver) Solve() Status { return s.SolveAssume(nil) }

// SolveAssume determines satisfiability under the given assumption literals.
// On Unsat, Core returns the subset of assumptions responsible. On Sat, Model
// returns the satisfying assignment.
func (s *Solver) SolveAssume(assumps []cnf.Lit) Status {
	s.solves++
	s.cancelUntil(0)
	s.conflict = s.conflict[:0]
	s.stopCause = StopNone
	if s.solveHook != nil {
		s.solveHook(s.solves)
	}
	if !s.ok {
		return Unsat
	}
	if s.propagate() != crefUndef {
		s.ok = false
		return Unsat
	}
	s.simplifyDB()
	if !s.ok {
		return Unsat
	}
	s.assumptions = append(s.assumptions[:0], s.standing...)
	for _, a := range assumps {
		if int(a.Var()) > s.numVars {
			s.EnsureVars(int(a.Var()))
		}
		s.assumptions = append(s.assumptions, toLit(a))
	}
	if s.maxLearnts == 0 {
		s.maxLearnts = float64(len(s.clauses)) / 3
		if s.maxLearnts < 1000 {
			s.maxLearnts = 1000
		}
	}
	s.budgetStart = s.conflicts
	s.conflictsSinceRestart = 0
	if s.stopRequested(true) {
		s.cancelUntil(0)
		return Unknown
	}
	status := s.search()
	if status == Sat {
		// keep trail for Model; caller must read before next Solve
		return Sat
	}
	s.cancelUntil(0)
	return status
}

// Model returns the satisfying assignment found by the last successful
// Solve/SolveAssume call. Only meaningful after Sat.
func (s *Solver) Model() cnf.Assignment { return s.ModelInto(nil) }

// ModelInto fills dst with the model of the last successful Solve/SolveAssume
// call, reusing dst's storage when it is large enough, and returns the
// (possibly grown) assignment. Only meaningful after Sat.
func (s *Solver) ModelInto(dst cnf.Assignment) cnf.Assignment {
	m := dst
	if cap(m) < s.numVars+1 {
		m = cnf.NewAssignment(s.numVars)
	}
	m = m[:s.numVars+1]
	for v := 1; v <= s.numVars; v++ {
		m.Set(cnf.Var(v), s.modelVal(v))
	}
	return m
}

// modelVal is the model value of variable v after a Sat result: the trail
// value, or the saved phase for unconstrained variables (for determinism).
func (s *Solver) modelVal(v int) cnf.Value {
	switch s.varValue(v) {
	case lTrue:
		return cnf.True
	case lFalse:
		return cnf.False
	default:
		return cnf.BoolValue(s.phase[v])
	}
}

// ModelValue returns the value of v in the model found by the last
// successful Solve/SolveAssume call, without materializing the full
// assignment the way Model does. Only meaningful after Sat; variables
// outside the solver's table report Unassigned.
func (s *Solver) ModelValue(v cnf.Var) cnf.Value {
	iv := int(v)
	if iv <= 0 || iv > s.numVars {
		return cnf.Unassigned
	}
	return s.modelVal(iv)
}

// Core returns the failed assumptions from the last Unsat SolveAssume call:
// a subset A of the assumptions such that the clause database together with
// A is unsatisfiable. Group activation literals (standing assumptions) are
// infrastructure, not caller assumptions, and are filtered out.
func (s *Solver) Core() []cnf.Lit {
	return s.AppendCore(make([]cnf.Lit, 0, len(s.conflict)))
}

// AppendCore appends the failed assumptions of the last Unsat SolveAssume
// call to dst and returns the extended slice — the zero-allocation form of
// Core for callers that own a reusable buffer.
func (s *Solver) AppendCore(dst []cnf.Lit) []cnf.Lit {
	for _, p := range s.conflict {
		if v := p.varIdx(); v < len(s.isSel) && s.isSel[v] {
			continue
		}
		dst = append(dst, fromLit(p).Neg())
	}
	return dst
}

// BlockModel adds a clause forbidding the current model restricted to the
// given variables (used for model enumeration). Must be called after Sat.
func (s *Solver) BlockModel(vars []cnf.Var) bool {
	m := s.Model()
	lits := make([]cnf.Lit, 0, len(vars))
	for _, v := range vars {
		lits = append(lits, cnf.MkLit(v, m.Get(v) != cnf.True))
	}
	return s.AddClause(lits...)
}

// varHeap is a binary max-heap over variable activities.
type varHeap struct {
	data     []int
	indices  []int // position+1 of var in data; 0 = absent
	activity *[]float64
}

func (h *varHeap) less(a, b int) bool { return (*h.activity)[a] > (*h.activity)[b] }

func (h *varHeap) inHeap(v int) bool { return v < len(h.indices) && h.indices[v] != 0 }

func (h *varHeap) empty() bool { return len(h.data) == 0 }

func (h *varHeap) clear() {
	for _, v := range h.data {
		h.indices[v] = 0
	}
	h.data = h.data[:0]
}

func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.data = append(h.data, v)
	h.indices[v] = len(h.data)
	h.percolateUp(len(h.data) - 1)
}

func (h *varHeap) decrease(v int) { // activity increased → move up
	if h.indices[v] == 0 {
		return
	}
	h.percolateUp(h.indices[v] - 1)
}

func (h *varHeap) removeMin() int {
	top := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.indices[top] = 0
	if len(h.data) > 0 {
		h.data[0] = last
		h.indices[last] = 1
		h.percolateDown(0)
	}
	return top
}

func (h *varHeap) percolateUp(i int) {
	v := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.data[p]) {
			break
		}
		h.data[i] = h.data[p]
		h.indices[h.data[i]] = i + 1
		i = p
	}
	h.data[i] = v
	h.indices[v] = i + 1
}

func (h *varHeap) percolateDown(i int) {
	v := h.data[i]
	for 2*i+1 < len(h.data) {
		c := 2*i + 1
		if c+1 < len(h.data) && h.less(h.data[c+1], h.data[c]) {
			c++
		}
		if !h.less(h.data[c], v) {
			break
		}
		h.data[i] = h.data[c]
		h.indices[h.data[i]] = i + 1
		i = c
	}
	h.data[i] = v
	h.indices[v] = i + 1
}
