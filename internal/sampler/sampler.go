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
// Sample's exact path needs no solver. It applies when the formula's
// support has at most maxEnumVars (16) variables: the projected variables
// a caller's preprocessing left open, since Options.Fixed holds unates at
// their constants and Options.Defs computes gate-defined variables from
// their inputs. Sampling on such an independent support is the standard
// way to sample a formula of many variables (Ivrii, Malik, Meel, Vardi,
// Constraints 2016; CMSGen's sampling set). The path evaluates the formula
// on every assignment of the support, 64 to a machine word. With at most
// as many models as requested it returns them all: with nothing fixed that
// is the set the draws would have returned, since they end only when the
// projected space is exhausted, and the learner reads the set, not the
// order. With more, it chooses distinct assignments of the universal
// variables, those outside Options.Exist, uniformly, and one completion of
// each, uniformly among its own. Choosing among models instead would favour
// universal assignments with many completions; in a controller instance
// every completion of a row where the escape circuit holds is a model, and
// such rows would fill the sample with labels that constrain nothing. A
// formula whose support has more than 16 variables is drawn as before,
// sample for sample.
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
	// for Sample's exact path; the draw loop reads none of them. Fixed holds
	// literals the exact path keeps true: each should be a unate's constant,
	// which never falsifies f where the other value satisfied it, or holding
	// it loses models. Defs lists gate definitions that hold in every model
	// of f, so that their outputs follow from the other variables; an input
	// is fixed, defined by an earlier entry, or not defined at all. Exist
	// names the existential variables: with more models than requested, the
	// exact path chooses among the assignments of the other support
	// variables, not among models (see Sample).
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

// Stats reports the oracle work one Sample call performed.
type Stats struct {
	// Solves counts SAT-solver calls, including budget-exhausted misses and
	// draws that repeat an accepted projection. It stays 0 when Sample
	// enumerated the formula instead of drawing.
	Solves int64
}

// Sample draws up to n satisfying assignments of f, pairwise distinct on the
// projection to opts.Vars (every variable occurring in f when empty). It
// returns fewer when the formula has fewer distinct projected solutions or
// when budgets run out, and an error when the formula is unsatisfiable, when
// ctx ends before any progress-preserving point, or (wrapping ErrBudget)
// when the budgets run out before a first sample.
//
// Sample first tries its exact path, which makes no solver call. The
// support is every projected variable that opts.Fixed does not fix and
// opts.Defs does not define. The path applies when the support has at most
// maxEnumVars variables and every variable 1..f.NumVars is projected, fixed
// or defined. It evaluates f on every assignment of the support, with the
// fixed variables held and the defined ones computed, and:
//
//   - with at most n models, returns all of them. With opts.Fixed empty
//     that is the set the draws return: they stop short of n only once
//     blocking has exhausted the projected space, and on so few variables a
//     draw does not run out of the default conflict budget;
//   - with more, returns n samples whose universal parts, their values of
//     the support variables outside opts.Exist, are pairwise distinct. The
//     universal assignments are chosen uniformly by opts.Seed among those
//     with a completion, and each one's completion uniformly among its own;
//     when at most n universal assignments have a completion, Sample
//     returns one sample for each. With opts.Exist empty, the samples are n
//     distinct models chosen uniformly.
//
// Either way the samples come in increasing order of the support assignment
// read as a binary number: the support's variables of opts.Exist in its low
// bits, the others above them, each part in increasing variable order.
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
// Solve call) and checked between draws.
func Sample(ctx context.Context, f *cnf.Formula, n int, opts Options) ([]cnf.Assignment, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("sampler: %w", ctx.Err())
	}
	if models, ok := enumerate(f, n, opts); ok {
		if len(models) == 0 {
			return nil, errUnsat
		}
		return models, nil
	}
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

// draw is Sample's draw loop, without the exact path: it draws up to n
// models from one solver, as Sample's doc describes.
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

// maxEnumVars is the largest support Sample enumerates: 2^16 assignments
// fill 1,024 words. A full scan of a sparse 16-variable formula of 60
// clauses takes 60–110 µs on a 2-CPU host, below the 0.1–1.2 ms its draws
// take, but each further variable doubles the scan while the draws cost
// about the same.
const maxEnumVars = 16

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

// enumClause is a clause compiled for the scan. Within one word the
// support variables at positions p ≥ 6 are constant, each all ones or all
// zeros: hiPos and hiNeg hold, at bit p−6, those the clause has positively
// and negatively. low is the word of assignments its literals over the
// support positions below 6 and over fixed variables satisfy, and
// defLits[dlo:dhi] are its literals over defined variables.
type enumClause struct {
	hiPos, hiNeg uint32
	low          uint64
	dlo, dhi     int32
}

// scan is f compiled for Sample's exact path. The support variables sit at
// positions 0..k−1, the existential ones at the kE lowest, so that
// assignment a of the support gives the variable at position p bit p of a,
// and the completions of one universal assignment u are the assignments
// u<<kE through u<<kE + 2^kE − 1. Every other variable of f is fixed or
// defined, so a determines it.
type scan struct {
	numVars int
	support []cnf.Var // support[p]: the variable at position p
	kE      int
	fixed   []cnf.Lit
	defs    []Def // Options.Defs: every input computed before it is read
	cls     []enumClause
	defLits []cnf.Lit
}

// Variable roles while a scan is compiled.
const (
	roleNone     = iota // not projected, fixed or defined: the exact path declines
	roleSupport         // projected, neither fixed nor defined
	roleTrue            // fixed true
	roleFalse           // fixed false
	roleDefined         // the output of a Def not yet checked
	roleComputed        // the output of a Def already checked, so a later Def may read it
)

// newScan compiles f for the exact path. ok is false when the path does not
// apply: a variable of f is neither projected nor fixed nor defined, a
// clause or option names a variable past f.NumVars, a variable is fixed or
// defined twice, a Def has more than three inputs or reads a defined
// variable before its definition, or the support has more than maxEnumVars
// variables.
func newScan(f *cnf.Formula, opts Options) (sc *scan, ok bool) {
	nv := f.NumVars
	inRange := func(v cnf.Var) bool { return v >= 1 && int(v) <= nv }
	role := make([]uint8, nv+1)
	for _, v := range projectedVars(f, opts) {
		if !inRange(v) {
			return nil, false
		}
		role[v] = roleSupport
	}
	for _, l := range opts.Fixed {
		if !inRange(l.Var()) || role[l.Var()] > roleSupport {
			return nil, false
		}
		role[l.Var()] = roleFalse
		if l.IsPos() {
			role[l.Var()] = roleTrue
		}
	}
	for _, d := range opts.Defs {
		if !inRange(d.Out) || role[d.Out] > roleSupport || len(d.In) > 3 {
			return nil, false
		}
		role[d.Out] = roleDefined
	}
	support := 0
	for _, r := range role[1:] {
		switch r {
		case roleNone:
			return nil, false
		case roleSupport:
			support++
		}
	}
	if support > maxEnumVars {
		return nil, false
	}
	for _, d := range opts.Defs {
		for _, v := range d.In {
			if !inRange(v) || v == d.Out || role[v] == roleDefined {
				return nil, false
			}
		}
		role[d.Out] = roleComputed
	}
	sc = &scan{numVars: nv, fixed: opts.Fixed, defs: opts.Defs}
	// Positions: the support's existentials first, then the rest, each part
	// in increasing variable order.
	exist := make([]bool, nv+1)
	for _, v := range opts.Exist {
		if inRange(v) {
			exist[v] = true
		}
	}
	for _, e := range []bool{true, false} {
		for v := 1; v <= nv; v++ {
			if role[v] == roleSupport && exist[v] == e {
				sc.support = append(sc.support, cnf.Var(v))
			}
		}
		if e {
			sc.kE = len(sc.support)
		}
	}
	pos := make([]int8, nv+1)
	for p, v := range sc.support {
		pos[v] = int8(p)
	}
	sc.cls = make([]enumClause, 0, len(f.Clauses))
clauses:
	for _, c := range f.Clauses {
		ec := enumClause{dlo: int32(len(sc.defLits))}
		for _, l := range c {
			v := l.Var()
			if !inRange(v) {
				return nil, false
			}
			switch p := pos[v]; {
			case role[v] == roleTrue || role[v] == roleFalse:
				if (role[v] == roleTrue) == l.IsPos() {
					sc.defLits = sc.defLits[:ec.dlo]
					continue clauses // holds on every assignment
				}
			case role[v] == roleComputed:
				sc.defLits = append(sc.defLits, l)
			case p >= 6 && l.IsPos():
				ec.hiPos |= 1 << (p - 6)
			case p >= 6:
				ec.hiNeg |= 1 << (p - 6)
			case l.IsPos():
				ec.low |= lowPatterns[p]
			default:
				ec.low |= ^lowPatterns[p]
			}
		}
		ec.dhi = int32(len(sc.defLits))
		sc.cls = append(sc.cls, ec)
	}
	return sc, true
}

// models evaluates f on every support assignment, 64 to a word, and
// returns the bitset of models: bit a%64 of word a/64 is set when
// assignment a, with the fixed and defined variables it implies, satisfies
// f.
func (sc *scan) models() []uint64 {
	k := len(sc.support)
	words, valid := 1, ^uint64(0)
	if k >= 6 {
		words = 1 << (k - 6)
	} else {
		valid = 1<<(1<<k) - 1 // one word, holding 2^k assignments
	}
	// val[v] is v's word: constant for fixed variables and support
	// positions below 6, set per word for the rest.
	val := make([]uint64, sc.numVars+1)
	for p, v := range sc.support[:min(k, 6)] {
		val[v] = lowPatterns[p]
	}
	for _, l := range sc.fixed {
		if l.IsPos() {
			val[l.Var()] = ^uint64(0)
		}
	}
	out := make([]uint64, words)
	var in [3]uint64
	for w := range uint32(words) {
		for p := 6; p < k; p++ {
			val[sc.support[p]] = -uint64(w >> (p - 6) & 1)
		}
		for _, d := range sc.defs {
			for j, v := range d.In {
				in[j] = val[v]
			}
			val[d.Out] = gateWord(d.Table, in[:len(d.In)])
		}
		acc := valid
		for _, c := range sc.cls {
			if w&c.hiPos != 0 || ^w&c.hiNeg != 0 {
				continue // a literal at a position ≥ 6 holds on the whole word
			}
			x := c.low
			for _, l := range sc.defLits[c.dlo:c.dhi] {
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
		out[w] = acc
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

// pick returns the support assignments of the samples, in increasing
// order: every model when there are at most n, and otherwise one model for
// each of n distinct universal assignments that have a completion (each of
// them when fewer have one), the universal assignments chosen uniformly by
// the seed and each completion uniformly among its own.
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
		// Floyd's algorithm draws an n-subset of the open universal
		// assignments' ranks uniformly; chosen then marks the assignments
		// of those ranks.
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
// each universal assignment's group of completions within a word.
var groupLows = [6]uint64{
	0xFFFFFFFFFFFFFFFF,
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
}

// openUnivs returns the bitset of the universal assignments that have a
// completion: bit u is set when some model lies in u's group.
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

// completion returns the existential part of one of universal assignment
// u's completions, chosen uniformly. The group's bits fill whole words
// when kE ≥ 6, and otherwise lie within one.
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

// boolValues[b] is the Value of bit b.
var boolValues = [2]cnf.Value{cnf.False, cnf.True}

// assignment writes into m the full assignment of support assignment a.
func (sc *scan) assignment(a uint32, m cnf.Assignment) {
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

// enumerate is Sample's exact path: when newScan applies, it scans f and
// returns the samples pick chooses, as full assignments. ok is false when
// the path does not apply.
func enumerate(f *cnf.Formula, n int, opts Options) (models []cnf.Assignment, ok bool) {
	sc, ok := newScan(f, opts)
	if !ok {
		return nil, false
	}
	codes := sc.pick(sc.models(), n, opts.Seed)
	// One backing array for every model; each model's capacity is pinned,
	// so appending to one cannot overwrite the next.
	stride := f.NumVars + 1
	flat := make(cnf.Assignment, len(codes)*stride)
	models = make([]cnf.Assignment, len(codes))
	for i, a := range codes {
		m := flat[i*stride : (i+1)*stride : (i+1)*stride]
		sc.assignment(a, m)
		models[i] = m
	}
	return models, true
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
