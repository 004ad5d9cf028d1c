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
// The instantiation is compiled before the first row. Each matrix clause
// becomes two 64-bit masks over the positions of X, one for the universals it
// holds positively and one for those it holds negatively, so row β satisfies
// the clause iff β∧pos ≠ 0 or ¬β∧neg ≠ 0, plus its existential literals in
// order as (index in Y, sign). Each row first looks up its one table cell per
// existential; an unsatisfied clause then costs array reads. Instantiated
// clauses go back to back into one flat literal buffer and are deduplicated
// exactly: two are duplicates iff their literal sequences are equal. An
// open-addressing table of 64-bit hashes finds the candidates, and a hash
// match drops a clause only when the literals compare equal, so no per-clause
// string, map entry or allocation is made. A row is one 64-bit word, so |X|
// is capped at 62.
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
	"math/bits"
	"slices"

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

// maxUnivVars is the ceiling on |X| whatever Options.MaxUnivVars says: a row
// β is a bit vector over X in a uint64, and the 2^|X| rows must be countable
// in an int.
const maxUnivVars = 62

// Options bounds the expansion.
type Options struct {
	// MaxUnivVars caps |X| (default 18): expansion enumerates 2^|X| rows.
	// More than 62 universal variables are rejected whatever it says.
	MaxUnivVars int
	// MaxTableCells caps Σ 2^|Hi| (default 1<<20).
	MaxTableCells int
	// SATConflictBudget bounds the final SAT call (default unlimited).
	SATConflictBudget int64
}

// Stats reports the expansion size.
type Stats struct {
	Rows       int // universal assignments instantiated
	TableCells int // function-table variables
	ClausesOut int // instantiated clauses after dropping satisfied ones
	SATConfl   int64
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
	if limit := min(opts.MaxUnivVars, maxUnivVars); nX > limit {
		return nil, fmt.Errorf("%w: %d universal variables (limit %d)", ErrTooLarge, nX, limit)
	}
	base, cells, err := tableBases(in, opts.MaxTableCells)
	if err != nil {
		return nil, err
	}

	stats := Stats{Rows: 1 << uint(nX), TableCells: cells}
	rec := backend.NewPhaseRecorder()
	rec.Begin(backend.PhaseExpand)
	clauses, err := instantiate(ctx, in, base)
	if err != nil {
		return nil, err
	}
	stats.ClausesOut = len(clauses)

	rec.Begin(backend.PhaseSolve)
	s := sat.New()
	s.EnsureVars(cells)
	s.AddClauses(clauses)
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
	for i, y := range in.Exist {
		deps := in.DepSet(y)
		table := make([]bool, 1<<uint(len(deps)))
		for row := range table {
			table[row] = m.Get(base[i]+cnf.Var(row)) == cnf.True
		}
		f, err := fv.B.FromTruthTable(deps, table)
		if err != nil {
			return nil, fmt.Errorf("expand: table for %d: %w", y, err)
		}
		fv.Funcs[y] = f
	}
	stats.Phases = rec.Phases()
	return &Result{Vector: fv, Stats: stats}, nil
}

// tableBases numbers the function-table variables from 1 in declaration
// order: existential in.Exist[i] owns the 2^|Hi| variables from base[i] on,
// and row α of its truth table is base[i]+α. It fails with ErrTooLarge as
// soon as the running total passes maxCells.
func tableBases(in *dqbf.Instance, maxCells int) (base []cnf.Var, cells int, err error) {
	base = make([]cnf.Var, len(in.Exist))
	for i, y := range in.Exist {
		base[i] = cnf.Var(cells + 1)
		cells += 1 << uint(len(in.DepSet(y)))
		if cells > maxCells {
			return nil, 0, fmt.Errorf("%w: %d table cells (limit %d)", ErrTooLarge, cells, maxCells)
		}
	}
	return base, cells, nil
}

// template is a matrix clause compiled against the universal block: the
// positions in in.Univ of the universals it holds positively (pos) and
// negatively (neg), and its existential literals as exist[lo:hi].
type template struct {
	pos, neg uint64
	lo, hi   int
}

// existLit is an existential literal of a template: the index of its
// variable in in.Exist and its sign, +1 or −1.
type existLit struct {
	y    int
	sign cnf.Lit
}

// instantiate expands the matrix over every row β of the universal block, in
// row order and clause order within a row, with the table variables numbered
// by base. It drops the clauses β satisfies and every clause whose literal
// sequence equals an earlier one, and returns ErrFalse on the first clause
// that instantiates empty. ctx is polled every 1024 rows. The caller
// guarantees |X| ≤ maxUnivVars.
func instantiate(ctx context.Context, in *dqbf.Instance, base []cnf.Var) ([]cnf.Clause, error) {
	// role[v] is 1 + the position of universal v in in.Univ, or −1 − the
	// index of existential v in in.Exist. Validate guarantees that every
	// matrix variable is one or the other.
	maxVar := 0
	for _, v := range slices.Concat(in.Univ, in.Exist) {
		maxVar = max(maxVar, int(v))
	}
	role := make([]int, maxVar+1)
	for p, x := range in.Univ {
		role[x] = 1 + p
	}
	for i, y := range in.Exist {
		role[y] = -1 - i
	}

	// Dependency positions: row β's cell for in.Exist[i] sets bit k of its
	// table row when β holds the k-th variable of Hi, whose position in
	// in.Univ is depPos[depLo[i]+k].
	depLo := make([]int, len(in.Exist)+1)
	var depPos []uint
	for i, y := range in.Exist {
		for _, d := range in.DepSet(y) {
			depPos = append(depPos, uint(role[d]-1))
		}
		depLo[i+1] = len(depPos)
	}

	tmpl := make([]template, len(in.Matrix.Clauses))
	var exist []existLit
	for j, c := range in.Matrix.Clauses {
		t := &tmpl[j]
		t.lo = len(exist)
		for _, l := range c {
			k := role[l.Var()]
			switch {
			case k < 0:
				e := existLit{y: -1 - k, sign: 1}
				if !l.IsPos() {
					e.sign = -1
				}
				exist = append(exist, e)
			case l.IsPos():
				t.pos |= 1 << uint(k-1)
			default:
				t.neg |= 1 << uint(k-1)
			}
		}
		t.hi = len(exist)
	}

	// Reserve room for every instantiation a row leaves unsatisfied, up to
	// the presize caps: a clause over u distinct universals, none of them
	// in both polarities, is unsatisfied on 2^(|X|−u) rows. Dedup drops few.
	nX := len(in.Univ)
	clauses, lits := 0, 0
	for _, t := range tmpl {
		if t.pos&t.neg != 0 {
			continue // x ∨ ¬x: every row satisfies it
		}
		n := min(1<<uint(nX-bits.OnesCount64(t.pos|t.neg)), presizeClauses)
		clauses = min(clauses+n, presizeClauses)
		lits = min(lits+n*(t.hi-t.lo), presizeLits)
	}
	set := newClauseSet(clauses, lits)

	cell := make([]cnf.Lit, len(in.Exist)) // positive literal of row β's cell per existential
	rows := uint64(1) << uint(nX)
	for beta := uint64(0); beta < rows; beta++ {
		if beta&1023 == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("%w: expansion interrupted: %w", ErrBudget, ctx.Err())
		}
		for i := range cell {
			row := 0
			for k, p := range depPos[depLo[i]:depLo[i+1]] {
				row |= int(beta>>p&1) << uint(k)
			}
			cell[i] = cnf.Lit(base[i]) + cnf.Lit(row)
		}
		for _, t := range tmpl {
			if beta&t.pos != 0 || ^beta&t.neg != 0 {
				continue // a universal literal is true under β
			}
			if t.lo == t.hi {
				// Instantiated empty clause: some β falsifies ϕ regardless
				// of existential choices.
				return nil, ErrFalse
			}
			h := uint64(0)
			for _, e := range exist[t.lo:t.hi] {
				l := cell[e.y] * e.sign
				set.lits = append(set.lits, l)
				h = (h ^ uint64(l)) * hashMul
			}
			set.commit(h)
		}
	}
	return set.clauses(), nil
}

// hashMul is the odd multiplier of the clause hash (2^64 divided by the
// golden ratio): each literal is xored in and the state multiplied, so the
// top bits, which pick a clause's home slot, depend on every literal.
const hashMul = 0x9e3779b97f4a7c15

// clauseSet holds clauses back to back in one flat literal buffer and keeps
// a clause only if no equal literal sequence is already held. The caller
// appends a clause's literals to lits and then calls commit with their hash.
type clauseSet struct {
	lits   []cnf.Lit // every kept clause, then the one being built
	starts []int     // kept clause k is lits[starts[k]:starts[k+1]]
	// slots is an open-addressing table over the kept clauses, probed
	// linearly from slot hash>>shift. Its length is a power of two, and it
	// is at most half full.
	slots []setSlot
	shift uint
}

// setSlot is one entry of clauseSet.slots.
type setSlot struct {
	hash uint64
	id   int // kept clause index + 1; 0 marks a free slot
}

// presizeClauses and presizeLits cap what instantiate reserves before its
// first ctx poll (about 18 MB, which holds every tier-2 gen instance), so a
// larger expansion claims its memory as it grows, between polls.
const (
	presizeClauses = 1 << 18
	presizeLits    = 1 << 20
)

// newClauseSet returns a set that holds the given numbers of clauses and
// literals before any of its slices grows.
func newClauseSet(clauses, lits int) *clauseSet {
	logSlots := 4
	for 1<<logSlots < 2*clauses {
		logSlots++
	}
	return &clauseSet{
		lits:   make([]cnf.Lit, 0, lits),
		starts: make([]int, 1, clauses+1),
		slots:  make([]setSlot, 1<<logSlots),
		shift:  uint(64 - logSlots),
	}
}

// commit keeps the clause built at the tail of lits, whose hash is h, unless
// an equal one is already kept; then it cuts the tail off again.
func (s *clauseSet) commit(h uint64) {
	n := len(s.starts) - 1
	start := s.starts[n]
	mask := uint64(len(s.slots) - 1)
	i := h >> s.shift
	for ; s.slots[i].id != 0; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl.hash == h && slices.Equal(s.clause(sl.id-1), s.lits[start:]) {
			s.lits = s.lits[:start]
			return
		}
	}
	s.slots[i] = setSlot{hash: h, id: n + 1}
	s.starts = append(s.starts, len(s.lits))
	if 2*(n+1) > len(s.slots) {
		s.grow()
	}
}

// grow doubles the slot table and re-inserts every kept clause by its stored
// hash.
func (s *clauseSet) grow() {
	old := s.slots
	s.slots = make([]setSlot, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.id == 0 {
			continue
		}
		i := sl.hash >> s.shift
		for s.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// clause returns kept clause k as a view into the literal buffer, its
// capacity pinned to its length.
func (s *clauseSet) clause(k int) cnf.Clause {
	lo, hi := s.starts[k], s.starts[k+1]
	return s.lits[lo:hi:hi]
}

// clauses returns the kept clauses in commit order.
func (s *clauseSet) clauses() []cnf.Clause {
	out := make([]cnf.Clause, len(s.starts)-1)
	for k := range out {
		out[k] = s.clause(k)
	}
	return out
}
