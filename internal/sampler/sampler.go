// Package sampler draws diverse satisfying assignments from a CNF formula.
// It stands in for the CMSGen constrained sampler used by the Manthan3 paper.
//
// CMSGen is, at heart, a CDCL solver with randomized branching and phase
// decisions plus frequent restarts; this package applies the same recipe to
// the repository's CDCL solver. Manthan's adaptive weighted sampling, a
// phase bias toward each existential's empirical frequency, is left out: on
// 680-run slices of the generated suite the solved count without it stayed
// within three of the count with it, and moved both ways.
//
// Like CMSGen (Golia, Soos, Chakraborty, Meel, "Designing Samplers is Easy:
// The Boon of Testers", FMCAD 2021), a draw adds no blocking clause while
// draws keep finding new projections. Each model's projection is packed into
// a flat bit row and deduplicated exactly against the rows already accepted.
// Draws repeat early only in a small projected space; after switchDups
// duplicate draws in a row, Sample blocks every seen projection and every
// later sample, so it finishes such a space on UNSAT.
//
// Sample has two paths that need no solver. Both work on the formula's
// support: the projected variables a caller's preprocessing left open,
// since Options.Fixed holds unates at their constants and Options.Defs
// computes gate-defined variables from their inputs. Sampling on such an
// independent support is the standard way to sample a formula of many
// variables (Ivrii, Malik, Meel, Vardi, Constraints 2016; CMSGen's sampling
// set). Both evaluate the formula on 64 support assignments to a machine
// word, and both choose among the assignments of the universal variables,
// those outside Options.Exist, not among models: in a controller instance
// every completion of a row where the escape circuit holds is a model, and
// choosing among models would fill the sample with such rows, whose labels
// constrain nothing.
//
//   - The exact path scans a support of at most maxEnumVars (16)
//     variables: every assignment of it. With at most as many models as
//     requested it returns them all: with nothing fixed that is the set the
//     draws would have returned, since they end only when the projected
//     space is exhausted, and the learner reads the set, not the order.
//     With more, it chooses distinct universal assignments (rows) uniformly
//     among those with a completion, and one completion of each, uniformly
//     among its own.
//   - The row path takes a support of up to maxRowVars (64) variables, so
//     that one machine word holds an assignment of it. It chooses rows
//     uniformly without replacement and completes each in one word of
//     assignments: with at most six existential support variables the word
//     holds every completion of the row, and with more it holds 64 random
//     ones, the first that satisfies the formula being a uniform choice
//     among the row's completions (rejection sampling). It declines, to the
//     draw loop, when the first rowProbe rows are mostly closed or a row
//     finds no completion in rejectWords words.
//
// A larger support is drawn as before, sample for sample.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package sampler

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// ErrBudget means a Sample call produced no sample because three draws in a
// row ran out of their conflict budget (maxConflictsPerSample).
// Callers map it onto their own budget outcome: more effort or another seed
// may succeed.
var ErrBudget = errors.New("sampler: per-sample conflict budget exhausted")

// Options configures sampling.
type Options struct {
	// Seed drives all randomness; samplers are deterministic per seed.
	Seed int64
	// Vars is the set of variables whose valuations constitute a sample.
	// Samples are full assignments, but diversity is enforced on this set.
	Vars []cnf.Var
	// Fixed, Defs and Exist describe f as a caller's preprocessing left it,
	// for Sample's exact and row paths; the draw loop reads none of them.
	// Fixed holds literals those paths keep true: each should be a unate's
	// constant, which never falsifies f where the other value satisfied it,
	// or holding it loses models. Defs lists gate definitions that hold in
	// every model of f, so that their outputs follow from the other
	// variables; an input is fixed, defined by an earlier entry, or not
	// defined at all. Exist names the existential variables: both paths
	// choose among the assignments of the other support variables, not
	// among models (see Sample).
	Fixed []cnf.Lit
	Defs  []Def
	Exist []cnf.Var
	// Stats, when non-nil, receives sampling telemetry (callers feed it
	// into their per-phase oracle accounting).
	Stats *Stats

	// maxConflicts bounds each draw's solver effort; 0, the only value
	// outside tests, means maxConflictsPerSample. Tests lower it to make
	// draws run out of their budget.
	maxConflicts int64
	// scanVars is the largest support the exact path scans; 0, the only
	// value outside tests, means maxEnumVars, and a negative value scans
	// none. Tests lower it so that formulas small enough for brute force
	// take the row path.
	scanVars int
}

// maxConflictsPerSample is the conflict budget of one draw.
const maxConflictsPerSample = 20000

// Def defines Out as a gate over at most three inputs: on the assignment r
// of In, with In[j] at bit j of r, Out takes bit r of Table.
type Def struct {
	Out   cnf.Var
	In    []cnf.Var
	Table uint8
}

// Stats reports the path and the oracle work of one Sample call.
type Stats struct {
	// Solves counts SAT-solver calls, including budget-exhausted misses and
	// draws that repeat an accepted projection. It stays 0 unless the draw
	// loop ran.
	Solves int64
	// Path is the path that produced the samples, or that was running when
	// the call failed.
	Path Path
}

// setPath records p as the path of the call st reports on, if any.
func (st *Stats) setPath(p Path) {
	if st != nil {
		st.Path = p
	}
}

// Path names the way a Sample call produced its samples.
type Path uint8

const (
	// PathDrawn is the draw loop: SAT draws from one solver.
	PathDrawn Path = iota
	// PathScanned is the exact path: f evaluated on every support assignment.
	PathScanned
	// PathRows is the row path with every completion of a row in its word.
	PathRows
	// PathRejection is the row path completing rows by rejection sampling.
	PathRejection
)

// String returns the path's name as a progress line reads it.
func (p Path) String() string {
	return [...]string{"drawn", "scanned", "rows (exact)", "rows (rejection)"}[p]
}

// Sample draws up to n satisfying assignments of f, pairwise distinct on the
// projection to opts.Vars (every variable occurring in f when empty). It
// returns fewer when the formula has fewer distinct projected solutions or
// when budgets run out, and an error when the formula is unsatisfiable, when
// ctx ends before any progress-preserving point, or (wrapping ErrBudget)
// when the budgets run out before a first sample.
//
// Sample first tries its paths that make no solver call. The support is
// every projected variable that opts.Fixed does not fix and opts.Defs does
// not define; its universal part, the support variables outside opts.Exist,
// assigns a row, and its existential part completes one. The paths apply
// when every variable 1..f.NumVars is projected, fixed or defined. They
// evaluate f with the fixed variables held and the defined ones computed.
// With a support of at most maxEnumVars variables the exact path evaluates
// f on every support assignment and:
//
//   - with at most n models, returns all of them. With opts.Fixed empty
//     that is the set the draws return: they stop short of n only once
//     blocking has exhausted the projected space, and on so few variables a
//     draw does not run out of the default conflict budget;
//   - with more, returns n samples whose universal parts are pairwise
//     distinct. The rows are chosen uniformly by opts.Seed among those with
//     a completion (open rows), and each one's completion uniformly among
//     its own; when at most n rows are open, Sample returns one sample for
//     each. With opts.Exist empty, the samples are n distinct models chosen
//     uniformly.
//
// The exact path returns its samples in increasing order of the support
// assignment read as a binary number: the support's variables of opts.Exist
// in its low bits, the others above them, each part in increasing variable
// order.
//
// With a support of up to maxRowVars variables the row path takes rows in
// an order drawn uniformly by opts.Seed (every row, in increasing order,
// when there are at most n), until it has n open rows, and returns one
// sample for each open row it took: universal parts pairwise distinct,
// each completion chosen uniformly among the row's own. With at most six
// existential support variables a row is evaluated on all its completions
// in one word, so the path returns min(n, open rows) samples, unless fewer
// than a quarter of the first rowProbe rows are open. With more, each word
// tries 64 random completions, and the first that satisfies f completes the
// row; a row that rejectWords words leave without a completion ends the
// path.
// The row path never answers that f is unsatisfiable: with no open row, or
// when it ends early, Sample runs the draw loop instead.
//
// Otherwise Sample draws, and its output is the draw loop's, sample for
// sample.
//
// One solver is loaded with f and reused across all draws, and its single
// seeded RNG stream keeps branching variables and phases random from draw to
// draw; the per-draw restart costs a backtrack to level 0, not a formula
// reload. A draw adds no clause while draws keep finding new projections:
// its projection onto opts.Vars is looked up in a hash set of the accepted
// rows, and a repeat is dropped. After switchDups duplicate draws in a row,
// Sample adds one blocking clause per accepted row and blocks each later
// sample as it is accepted, so no draw can repeat and sampling runs until the
// projected space is exhausted. Stats.Solves counts every draw, duplicates
// included.
//
// Cancellation is prompt: ctx is installed on the solver (polled inside each
// Solve call) and checked between draws, and the row path checks it after
// about every pollClauses clause tests.
func Sample(ctx context.Context, f *cnf.Formula, n int, opts Options) ([]cnf.Assignment, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sampler: %w", err)
	}
	sc, ok := newScan(f, opts)
	switch {
	case ok && sc.path == PathScanned:
		opts.Stats.setPath(sc.path)
		codes := sc.pick(sc.models(), n, opts.Seed)
		if len(codes) == 0 {
			return nil, errUnsat
		}
		return assignments(&sc, codes), nil
	case ok:
		opts.Stats.setPath(sc.path)
		codes, answered, err := sc.rows(ctx, n, opts.Seed)
		if err != nil {
			return nil, err
		}
		if answered {
			return assignments(&sc, codes), nil
		}
	}
	opts.Stats.setPath(PathDrawn)
	return draw(ctx, f, n, opts)
}

// errUnsat is Sample's error for a formula with no model.
var errUnsat = errors.New("sampler: formula is unsatisfiable")

// projectedVars returns the variables samples must be distinct on.
func projectedVars(f *cnf.Formula, opts Options) []cnf.Var {
	if len(opts.Vars) == 0 {
		return f.Vars()
	}
	return opts.Vars
}

// draw is Sample's draw loop, without the paths that make no solver call:
// it draws up to n models from one solver, as Sample's doc describes.
func draw(ctx context.Context, f *cnf.Formula, n int, opts Options) ([]cnf.Assignment, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	budget := opts.maxConflicts
	if budget == 0 {
		budget = maxConflictsPerSample
	}
	vars := projectedVars(f, opts)

	s := sat.New()
	// One seed: the solver's stream stays random across draws.
	s.SetSeed(rand.New(rand.NewSource(opts.Seed)).Int63())
	s.SetRandomVarFreq(0.6)
	s.SetRandomPhaseFreq(1.0)
	s.SetConflictBudget(budget) // budget is per Solve call
	s.SetContext(ctx)
	s.AddFormula(f)

	// Cap the preallocation: n is a request ceiling, not a promise — callers
	// may pass huge n to mean "enumerate until canceled".
	samples := make([]cnf.Assignment, 0, min(n, 4096))
	seen := newRowSet(vars, cap(samples))
	var block cnf.Clause // reused for each sample's blocking clause
	blocking := false
	misses, dups := 0, 0
	for len(samples) < n && misses < 3 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sampler: %w", err)
		}
		if opts.Stats != nil {
			opts.Stats.Solves++
		}
		st := s.Solve()
		if st == sat.Unsat {
			// All projected solutions enumerated (or f unsatisfiable).
			if len(samples) == 0 {
				return nil, errUnsat
			}
			break
		}
		if st == sat.Unknown {
			if err := ctx.Err(); err != nil {
				// Cancellation, not draw-budget exhaustion: stop immediately.
				return nil, fmt.Errorf("sampler: %w", err)
			}
			// Budget exhausted on this draw; retry — the RNG stream has
			// advanced, so the next attempt explores differently.
			misses++
			continue
		}
		misses = 0
		if !seen.add(s) {
			// A repeat. A run of them means the projected space is small:
			// block what is seen so the remaining draws must be new. A
			// budget miss does not reset the count, so an exhausted space
			// always reaches the switch.
			dups++
			if !blocking && dups >= switchDups {
				s.AddClauses(seen.blockingClauses())
				blocking = true
			}
			continue
		}
		dups = 0
		samples = append(samples, s.Model())
		// Once blocking, forbid this projection too; an inconsistent solver
		// (empty projection set) means no further distinct samples exist.
		if blocking {
			block = seen.blockingClause(block[:0], seen.n-1)
			if !s.AddClause(block...) {
				break
			}
		}
	}
	if len(samples) == 0 {
		// Only misses end the loop before a first sample.
		return nil, fmt.Errorf("%w: no samples produced after %d draws in a row", ErrBudget, misses)
	}
	return samples, nil
}

// maxEnumVars is the largest support Sample scans: 2^16 assignments fill
// 1,024 words. A full scan of a sparse 16-variable formula of 60 clauses
// takes 60–110 µs on a 2-CPU host, below the 0.1–1.2 ms its draws take,
// but each further variable doubles the scan while the draws cost about the
// same.
const maxEnumVars = 16

// maxRowVars is the largest support the row path takes: one uint64 holds a
// support assignment, the row in its high bits and the completion in its
// low ones.
const maxRowVars = 64

// rowProbe is the number of rows after which the row path, when each word
// holds every completion of its row, checks that at least a quarter of
// them were open, and otherwise declines: such a formula would cost more
// than four words per sample. A declined call has paid for rowProbe words,
// a few µs, where a draw costs about 1.5 µs on the formulas of the gen
// families.
const rowProbe = 32

// rejectWords is the number of words of 64 random completions the row path
// tries on a row, by rejection, before it declines.
const rejectWords = 8

// pollClauses is about the number of clause tests between two checks of
// the row path's context, a row's own bookkeeping counted as 16: it checks
// every pollClauses/(|clauses|+16) rows, and at least every row, so that a
// formula of many clauses is canceled as promptly as a small one.
const pollClauses = 1 << 16

// lowPatterns[p] holds, at bit j, bit p of j: the values the variable at
// position p < 6 takes across the 64 assignments of one word.
var lowPatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// enumClause is a clause compiled for word evaluation. Within one word the
// support variables at positions p ≥ hi are constant, each all ones or all
// zeros: hiPos and hiNeg hold, at bit p−hi, those the clause has positively
// and negatively. low is the word of assignments its literals over the
// support positions below lo and over fixed variables satisfy, and
// wordLits[dlo:dhi] are its literals over the variables val holds per word:
// defined variables and support positions from lo up to hi.
type enumClause struct {
	hiPos, hiNeg uint64
	low          uint64
	dlo, dhi     int32
}

// scan is f compiled for Sample's exact and row paths. The support
// variables sit at positions 0..k−1, the existential ones at the kE lowest,
// so that assignment a of the support gives the variable at position p bit
// p of a, and the completions of row u are the assignments u<<kE through
// u<<kE + 2^kE − 1. Every other variable of f is fixed or defined, so a
// determines it.
//
// A word evaluates f on 64 assignments at once (see word): the positions
// below lo take lowPatterns, those from hi are constant across the word,
// and val holds the words of those in between. The exact path has lo = hi
// = 6, so word w holds assignments 64w through 64w+63. The row path has hi
// = kE, so that a word holds completions of one row: every one of them with
// lo = kE ≤ 6, and 64 random ones with lo = 0.
type scan struct {
	path     Path // PathScanned, PathRows or PathRejection
	numVars  int
	support  []cnf.Var // support[p]: the variable at position p
	kE       int
	fixed    []cnf.Lit
	defs     []Def // Options.Defs: every input computed before it is read
	lo, hi   int
	valid    uint64 // the lanes of a word that hold distinct assignments
	gateHi   uint64 // bit p−hi: a Def reads the support variable at position p ≥ hi
	cls      []enumClause
	wordLits []cnf.Lit
	val      []uint64 // val[v]: v's word
}

// Variable roles while a scan is compiled.
const (
	roleNone     = iota // not projected, fixed or defined: the paths decline
	roleSupport         // projected, neither fixed nor defined
	roleTrue            // fixed true
	roleFalse           // fixed false
	roleDefined         // the output of a Def not yet checked
	roleComputed        // the output of a Def already checked, so a later Def may read it
)

// newScan compiles f for the exact path when the support has at most
// opts.scanVars variables, and otherwise for the row path. ok is false when
// neither applies: a variable of f is neither projected nor fixed nor
// defined, a clause or option names a variable past f.NumVars, a variable
// is fixed or defined twice, a Def has more than three inputs or reads a
// defined variable before its definition, or the support has more than
// maxRowVars variables.
func newScan(f *cnf.Formula, opts Options) (sc scan, ok bool) {
	nv := f.NumVars
	inRange := func(v cnf.Var) bool { return v >= 1 && int(v) <= nv }
	// role[v], exist[v] (1 for a variable of opts.Exist) and pos[v] (the
	// position of a support variable) share one allocation.
	buf := make([]uint8, 3*(nv+1))
	role, exist, pos := buf[:nv+1], buf[nv+1:2*nv+2], buf[2*nv+2:]
	for _, v := range projectedVars(f, opts) {
		if !inRange(v) {
			return scan{}, false
		}
		role[v] = roleSupport
	}
	for _, l := range opts.Fixed {
		if !inRange(l.Var()) || role[l.Var()] > roleSupport {
			return scan{}, false
		}
		role[l.Var()] = roleFalse
		if l.IsPos() {
			role[l.Var()] = roleTrue
		}
	}
	for _, d := range opts.Defs {
		if !inRange(d.Out) || role[d.Out] > roleSupport || len(d.In) > 3 {
			return scan{}, false
		}
		role[d.Out] = roleDefined
	}
	k := 0
	for _, r := range role[1:] {
		switch r {
		case roleNone:
			return scan{}, false
		case roleSupport:
			k++
		}
	}
	if k > maxRowVars {
		return scan{}, false
	}
	for _, d := range opts.Defs {
		for _, v := range d.In {
			if !inRange(v) || v == d.Out || role[v] == roleDefined {
				return scan{}, false
			}
		}
		role[d.Out] = roleComputed
	}
	sc = scan{numVars: nv, support: make([]cnf.Var, 0, k), fixed: opts.Fixed, defs: opts.Defs}
	// Positions: the support's existentials first, then the rest, each part
	// in increasing variable order.
	for _, v := range opts.Exist {
		if inRange(v) {
			exist[v] = 1
		}
	}
	for _, e := range [2]uint8{1, 0} {
		for v := 1; v <= nv; v++ {
			if role[v] == roleSupport && exist[v] == e {
				sc.support = append(sc.support, cnf.Var(v))
			}
		}
		if e == 1 {
			sc.kE = len(sc.support)
		}
	}
	scanVars := opts.scanVars
	if scanVars == 0 {
		scanVars = maxEnumVars
	}
	// lanes(j) is the word of the lowest 2^j lanes, j ≤ 6.
	lanes := func(j int) uint64 { return ^uint64(0) >> (64 - 1<<j) }
	switch {
	case k <= scanVars:
		sc.path, sc.lo, sc.hi, sc.valid = PathScanned, 6, 6, lanes(min(k, 6))
	case sc.kE <= 6:
		sc.path, sc.lo, sc.hi, sc.valid = PathRows, sc.kE, sc.kE, lanes(sc.kE)
	default:
		sc.path, sc.lo, sc.hi, sc.valid = PathRejection, 0, sc.kE, ^uint64(0)
	}
	for p, v := range sc.support {
		pos[v] = uint8(p)
	}
	// val holds the words that stay the same for every word: the low
	// patterns and the fixed variables.
	sc.val = make([]uint64, nv+1)
	for p, v := range sc.support[:min(k, sc.lo)] {
		sc.val[v] = lowPatterns[p]
	}
	for _, l := range sc.fixed {
		if l.IsPos() {
			sc.val[l.Var()] = ^uint64(0)
		}
	}
	for _, d := range sc.defs {
		for _, v := range d.In {
			if p := int(pos[v]); role[v] == roleSupport && p >= sc.hi {
				sc.gateHi |= 1 << (p - sc.hi)
			}
		}
	}
	sc.cls = make([]enumClause, 0, len(f.Clauses))
clauses:
	for _, c := range f.Clauses {
		ec := enumClause{dlo: int32(len(sc.wordLits))}
		for _, l := range c {
			v := l.Var()
			if !inRange(v) {
				return scan{}, false
			}
			switch p := int(pos[v]); {
			case role[v] == roleTrue || role[v] == roleFalse:
				if (role[v] == roleTrue) == l.IsPos() {
					sc.wordLits = sc.wordLits[:ec.dlo]
					continue clauses // holds on every assignment
				}
			case role[v] == roleComputed || p >= sc.lo && p < sc.hi:
				sc.wordLits = append(sc.wordLits, l)
			case p >= sc.hi && l.IsPos():
				ec.hiPos |= 1 << (p - sc.hi)
			case p >= sc.hi:
				ec.hiNeg |= 1 << (p - sc.hi)
			case l.IsPos():
				ec.low |= lowPatterns[p]
			default:
				ec.low |= ^lowPatterns[p]
			}
		}
		ec.dhi = int32(len(sc.wordLits))
		sc.cls = append(sc.cls, ec)
	}
	return sc, true
}

// word evaluates f on the 64 assignments of one word, in which the support
// variable at each position p ≥ hi takes bit p−hi of h, and returns the
// bitset of the valid lanes whose assignment, with the fixed and defined
// variables it implies, satisfies f.
func (sc *scan) word(h uint64) uint64 {
	val := sc.val
	for m := sc.gateHi; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		val[sc.support[sc.hi+q]] = -(h >> q & 1)
	}
	var in [3]uint64
	for _, d := range sc.defs {
		for j, v := range d.In {
			in[j] = val[v]
		}
		val[d.Out] = gateWord(d.Table, in[:len(d.In)])
	}
	acc := sc.valid
	lits := sc.wordLits
	for _, c := range sc.cls {
		if h&c.hiPos != 0 || ^h&c.hiNeg != 0 {
			continue // a literal at a position ≥ hi holds on the whole word
		}
		x := c.low
		for _, l := range lits[c.dlo:c.dhi] {
			if l.IsPos() {
				x |= val[l.Var()]
			} else {
				x |= ^val[l.Var()]
			}
		}
		if acc &= x; acc == 0 {
			break
		}
	}
	return acc
}

// models evaluates f on every support assignment, 64 to a word, and
// returns the bitset of models: bit a%64 of word a/64 is set when
// assignment a, with the fixed and defined variables it implies, satisfies
// f.
func (sc *scan) models() []uint64 {
	words := 1
	if k := len(sc.support); k > 6 {
		words = 1 << (k - 6)
	}
	out := make([]uint64, words)
	for w := range out {
		out[w] = sc.word(uint64(w))
	}
	return out
}

// gateWord evaluates a gate on 64 assignments at once: bit i of the result
// is the table's value on row r, where bit j of r is bit i of in[j].
func gateWord(table uint8, in []uint64) uint64 {
	out := uint64(0)
	for r := 0; r < 1<<len(in); r++ {
		if table>>r&1 == 0 {
			continue
		}
		m := ^uint64(0)
		for j, x := range in {
			if r>>j&1 == 0 {
				x = ^x
			}
			m &= x
		}
		out |= m
	}
	return out
}

// pick returns the support assignments of the exact path's samples, in
// increasing order: every model when there are at most n, and otherwise one
// model for each of n distinct rows that have a completion (each of them
// when fewer have one), the rows chosen uniformly by the seed and each
// completion uniformly among its own.
func (sc *scan) pick(models []uint64, n int, seed int64) []uint32 {
	total := 0
	for _, w := range models {
		total += bits.OnesCount64(w)
	}
	codes := make([]uint32, 0, min(n, total))
	if total <= n {
		for i, w := range models {
			for ; w != 0; w &= w - 1 {
				codes = append(codes, uint32(i)<<6|uint32(bits.TrailingZeros64(w)))
			}
		}
		return codes
	}
	opens := sc.openUnivs(models)
	open := 0
	for _, w := range opens {
		open += bits.OnesCount64(w)
	}
	// A PCG seeds in a few words, where math/rand's source fills 607.
	rng := randv2.New(randv2.NewPCG(uint64(seed), 0))
	chosen := opens
	if open > n {
		// Floyd's algorithm draws an n-subset of the open rows' ranks
		// uniformly; chosen then marks the rows of those ranks.
		ranks := make([]uint64, (open+63)/64)
		for j := open - n; j < open; j++ {
			t := rng.IntN(j + 1)
			if ranks[t/64]>>(t%64)&1 != 0 {
				t = j
			}
			ranks[t/64] |= 1 << (t % 64)
		}
		chosen = make([]uint64, len(opens))
		rank := 0
		for i, w := range opens {
			for ; w != 0; w &= w - 1 {
				if ranks[rank/64]>>(rank%64)&1 != 0 {
					chosen[i] |= 1 << bits.TrailingZeros64(w)
				}
				rank++
			}
		}
	}
	for i, w := range chosen {
		for ; w != 0; w &= w - 1 {
			u := uint32(i)<<6 | uint32(bits.TrailingZeros64(w))
			codes = append(codes, u<<sc.kE|sc.completion(models, u, rng))
		}
	}
	return codes
}

// groupLows[kE] has a bit at every multiple of 2^kE: the lowest bit of
// each row's group of completions within a word.
var groupLows = [6]uint64{
	0xFFFFFFFFFFFFFFFF,
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
}

// openUnivs returns the bitset of the rows that have a completion: bit u
// is set when some model lies in u's group.
func (sc *scan) openUnivs(models []uint64) []uint64 {
	kE := sc.kE
	groups := 1 << (len(sc.support) - kE)
	opens := make([]uint64, (groups+63)/64)
	if kE >= 6 {
		per := 1 << (kE - 6)
		for u := range groups {
			if slices.ContainsFunc(models[u*per:(u+1)*per], func(w uint64) bool { return w != 0 }) {
				opens[u/64] |= 1 << (u % 64)
			}
		}
		return opens
	}
	for i, x := range models {
		// Fold each group onto its lowest bit: afterwards bit j holds the OR
		// of bits j through j+2^kE−1.
		for s := 1; s < 1<<kE; s <<= 1 {
			x |= x >> s
		}
		for x &= groupLows[kE]; x != 0; x &= x - 1 {
			u := i<<(6-kE) | bits.TrailingZeros64(x)>>kE
			opens[u/64] |= 1 << (u % 64)
		}
	}
	return opens
}

// completion returns the existential part of one of row u's completions,
// chosen uniformly. The group's bits fill whole words when kE ≥ 6, and
// otherwise lie within one.
func (sc *scan) completion(models []uint64, u uint32, rng *randv2.Rand) uint32 {
	var run []uint64
	shift, mask := uint(0), ^uint64(0)
	if sc.kE >= 6 {
		per := uint32(1) << (sc.kE - 6)
		run = models[u*per : (u+1)*per]
	} else {
		w := u >> (6 - sc.kE)
		run, shift, mask = models[w:w+1], uint(u<<sc.kE)&63, 1<<(1<<sc.kE)-1
	}
	c := 0
	for _, w := range run {
		c += bits.OnesCount64(w >> shift & mask)
	}
	r := rng.IntN(c)
	for i, w := range run {
		x := w >> shift & mask
		if c := bits.OnesCount64(x); r >= c {
			r -= c
			continue
		}
		for ; r > 0; r-- {
			x &= x - 1
		}
		return uint32(i)<<6 | uint32(bits.TrailingZeros64(x))
	}
	panic("sampler: completion index out of range")
}

// rows is the row path. It takes rows in increasing order when there are
// at most n, and otherwise in the order of a sparse Fisher–Yates shuffle
// drawn from a PCG seeded with seed, until it has n open rows, and returns
// the support assignment of one sample for each open row it took. ok is
// false when the path declines: fewer than a quarter of the first rowProbe
// rows were open, a row found no completion by rejection, or no row was
// open.
func (sc *scan) rows(ctx context.Context, n int, seed int64) (codes []uint64, ok bool, err error) {
	ku := len(sc.support) - sc.kE
	total := uint64(1) << ku // 0 when there are 2^64 rows
	inOrder := ku < 64 && total <= uint64(n)
	rng := randv2.New(randv2.NewPCG(uint64(seed), 0))
	// Cap the preallocation: n is a request ceiling, not a promise — callers
	// may pass huge n to mean "sample until canceled".
	hint := min(n, 4096)
	if inOrder {
		hint = min(hint, int(total))
	}
	codes = make([]uint64, 0, hint)
	// moved[j] is the row a swap left at position j; a position no swap
	// wrote holds row j.
	var moved map[uint64]uint64
	at := func(j uint64) uint64 {
		if u, ok := moved[j]; ok {
			return u
		}
		return j
	}
	if !inOrder {
		moved = make(map[uint64]uint64, hint)
	}
	poll := uint64(max(1, pollClauses/(len(sc.cls)+16)))
	for i := uint64(0); len(codes) < n; i++ {
		if i%poll == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, fmt.Errorf("sampler: %w", err)
			}
		}
		u := i
		if !inOrder {
			// Take the row at a uniformly chosen position j ≥ i, and move the
			// row at position i to j.
			j := i
			if span := total - i; span == 0 {
				j += rng.Uint64() // all 2^64 positions
			} else {
				j += rng.Uint64N(span)
			}
			u = at(j)
			moved[j] = at(i)
		}
		e, found := sc.complete(u, rng)
		switch {
		case found:
			codes = append(codes, u<<sc.kE|e)
		case sc.path == PathRejection:
			return nil, false, nil
		}
		if i+1 == rowProbe && 4*len(codes) < rowProbe {
			return nil, false, nil // mostly closed
		}
		if i == total-1 {
			break // every row taken
		}
	}
	return codes, len(codes) > 0, nil
}

// complete returns the existential part of a completion of row u, chosen
// uniformly among the row's own, and whether it found one. With every
// completion in the word (PathRows), finding none means the row is closed;
// by rejection, it means rejectWords words of random completions held none.
func (sc *scan) complete(u uint64, rng *randv2.Rand) (uint64, bool) {
	if sc.path == PathRows {
		acc := sc.word(u)
		if acc == 0 {
			return 0, false
		}
		for r := rng.IntN(bits.OnesCount64(acc)); r > 0; r-- {
			acc &= acc - 1
		}
		return uint64(bits.TrailingZeros64(acc)), true
	}
	exist := sc.support[:sc.kE]
	for range rejectWords {
		for _, v := range exist {
			sc.val[v] = rng.Uint64()
		}
		if acc := sc.word(u); acc != 0 {
			lane := bits.TrailingZeros64(acc)
			e := uint64(0)
			for p, v := range exist {
				e |= sc.val[v] >> lane & 1 << p
			}
			return e, true
		}
	}
	return 0, false
}

// boolValues[b] is the Value of bit b.
var boolValues = [2]cnf.Value{cnf.False, cnf.True}

// assignment writes into m the full assignment of support assignment a.
func (sc *scan) assignment(a uint64, m cnf.Assignment) {
	for p, v := range sc.support {
		m[v] = boolValues[a>>p&1]
	}
	for _, l := range sc.fixed {
		m[l.Var()] = cnf.BoolValue(l.IsPos())
	}
	for _, d := range sc.defs {
		r := 0
		for j, v := range d.In {
			if m[v] == cnf.True {
				r |= 1 << j
			}
		}
		m[d.Out] = cnf.BoolValue(d.Table>>r&1 == 1)
	}
}

// assignments returns the full assignments of support assignments codes:
// 32 bits hold the exact path's, 64 the row path's.
func assignments[C uint32 | uint64](sc *scan, codes []C) []cnf.Assignment {
	// One backing array for every model; each model's capacity is pinned,
	// so appending to one cannot overwrite the next.
	stride := sc.numVars + 1
	flat := make(cnf.Assignment, len(codes)*stride)
	models := make([]cnf.Assignment, len(codes))
	for i, a := range codes {
		m := flat[i*stride : (i+1)*stride : (i+1)*stride]
		sc.assignment(uint64(a), m)
		models[i] = m
	}
	return models
}

// switchDups is the number of duplicate draws in a row after which Sample
// blocks every seen projection. Unblocked draws repeat early only in small
// projected spaces (a few to a few hundred points), where a run of 32
// repeats says the rest of the space is cheaper to reach by blocking.
const switchDups = 32

// hashMul is the odd multiplier of the row hash (2^64 divided by the golden
// ratio): each word is xored in and the state multiplied, so the top bits,
// which pick a row's home slot, depend on every word.
const hashMul = 0x9e3779b97f4a7c15

// rowSet holds the accepted projections back to back in one flat bit buffer,
// stride words per row with bit k holding vars[k], and keeps a row only if
// no equal row is already held: an open-addressing table of hashes finds the
// candidates, and a hash hit is confirmed on the full row.
type rowSet struct {
	vars   []cnf.Var
	stride int      // words per row, ⌈|vars|/64⌉
	rows   []uint64 // every kept row, then the one being read
	n      int      // kept rows
	// slots is probed linearly from slot hash>>shift. Its length is a power
	// of two, and it is at most half full.
	slots []rowSlot
	shift uint
}

// rowSlot is one entry of rowSet.slots.
type rowSlot struct {
	hash uint64
	id   int // kept row index + 1; 0 marks a free slot
}

// newRowSet returns a set over vars that holds the given number of rows
// before any of its slices grows.
func newRowSet(vars []cnf.Var, rows int) *rowSet {
	logSlots := 4
	for 1<<logSlots < 2*rows {
		logSlots++
	}
	stride := (len(vars) + 63) / 64
	return &rowSet{
		vars:   vars,
		stride: stride,
		rows:   make([]uint64, 0, (rows+1)*stride),
		slots:  make([]rowSlot, 1<<logSlots),
		shift:  uint(64 - logSlots),
	}
}

// add reads the projection of s's model onto vars and keeps it unless an
// equal row is already kept; it reports whether the row was new.
func (r *rowSet) add(s *sat.Solver) bool {
	start := r.n * r.stride
	r.rows = slices.Grow(r.rows, r.stride)[:start+r.stride]
	row := r.rows[start:]
	clear(row)
	for k, v := range r.vars {
		if s.ModelValue(v) == cnf.True {
			row[k>>6] |= 1 << uint(k&63)
		}
	}
	h := uint64(0)
	for _, w := range row {
		h = (h ^ w) * hashMul
	}
	mask := uint64(len(r.slots) - 1)
	i := h >> r.shift
	for ; r.slots[i].id != 0; i = (i + 1) & mask {
		sl := r.slots[i]
		if sl.hash == h && slices.Equal(r.row(sl.id-1), row) {
			r.rows = r.rows[:start]
			return false
		}
	}
	r.n++
	r.slots[i] = rowSlot{hash: h, id: r.n}
	if 2*r.n > len(r.slots) {
		r.grow()
	}
	return true
}

// grow doubles the slot table and re-inserts every kept row by its stored
// hash.
func (r *rowSet) grow() {
	old := r.slots
	r.slots = make([]rowSlot, 2*len(old))
	r.shift--
	mask := uint64(len(r.slots) - 1)
	for _, sl := range old {
		if sl.id == 0 {
			continue
		}
		i := sl.hash >> r.shift
		for r.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		r.slots[i] = sl
	}
}

// row returns kept row k.
func (r *rowSet) row(k int) []uint64 {
	return r.rows[k*r.stride : (k+1)*r.stride]
}

// blockingClause appends to dst the clause that forbids kept row k: the
// literal of each projected variable that the row falsifies.
func (r *rowSet) blockingClause(dst cnf.Clause, k int) cnf.Clause {
	row := r.row(k)
	for i, v := range r.vars {
		dst = append(dst, cnf.MkLit(v, row[i>>6]>>uint(i&63)&1 == 0))
	}
	return dst
}

// blockingClauses returns one blocking clause per kept row, in one flat
// literal buffer.
func (r *rowSet) blockingClauses() []cnf.Clause {
	lits := make(cnf.Clause, 0, r.n*len(r.vars))
	out := make([]cnf.Clause, r.n)
	for k := range out {
		start := len(lits)
		lits = r.blockingClause(lits, k)
		out[k] = lits[start:len(lits):len(lits)]
	}
	return out
}
