// Package sampler draws diverse satisfying assignments from a CNF formula.
// It stands in for the CMSGen constrained sampler used by the Manthan3 paper.
//
// CMSGen is, at heart, a CDCL solver with randomized branching and phase
// decisions plus frequent restarts; this package applies the same recipe to
// the repository's CDCL solver, along with the adaptive weighted sampling
// trick from the Manthan line of work: after an initial round, each
// existential variable's phase is biased toward its empirical frequency,
// pushing samples toward regions where learned candidates generalize.
//
// Like CMSGen (Golia, Soos, Chakraborty, Meel, "Designing Samplers is Easy:
// The Boon of Testers", FMCAD 2021), a draw adds no blocking clause while
// draws keep finding new projections. Each model's projection is packed into
// a flat bit row and deduplicated exactly against the rows already accepted.
// Draws repeat early only in a small projected space; after switchDups
// duplicate draws in a row, Sample blocks every seen projection and every
// later sample, so it finishes such a space on UNSAT.
//
// A formula of at most maxEnumVars (16) variables, all of them projected,
// needs no solver at all when it has no more models than requested: Sample
// evaluates it on every assignment, 64 to a machine word, and returns the
// models in increasing order. The draws would have returned the same set,
// since they end only when the projected space is exhausted, and the
// learner reads the set, not the order. When the scan finds more models
// than requested it stops there, and the draws run as before.
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
	"slices"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// ErrBudget means a Sample call produced no sample because three draws in a
// row ran out of their conflict budget (Options.MaxConflictsPerSample).
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
	// AdaptiveVars, when non-empty, selects variables whose phase bias is
	// adapted to empirical frequencies after the first half of the samples
	// (Manthan's adaptive weighted sampling). It must not repeat a variable:
	// frequencies are counted per position.
	AdaptiveVars []cnf.Var
	// MaxConflictsPerSample bounds solver effort per sample; 0 means 20000.
	MaxConflictsPerSample int64
	// Stats, when non-nil, receives sampling telemetry (callers feed it
	// into their per-phase oracle accounting).
	Stats *Stats
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
// When the projection covers variables 1..f.NumVars and there are at most
// maxEnumVars of them, Sample first evaluates f on every assignment. If f
// has at most n models it returns all of them, in increasing order of the
// assignment read as a binary number (variable v at bit v−1), and makes no
// solver call. That is the set the draws return: they stop short of n only
// once blocking has exhausted the projected space, and on so few variables
// a draw does not run out of the default conflict budget. If f has more than n
// models the scan stops at the (n+1)-th, and Sample draws exactly as below,
// so its output is the draws' output, sample for sample.
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
	if models, ok := enumerate(f, projectedVars(f, opts), n); ok {
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
	budget := opts.MaxConflictsPerSample
	if budget == 0 {
		budget = 20000
	}
	vars := projectedVars(f, opts)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Frequency counters for adaptive bias: freq[i] counts the accepted
	// samples that set AdaptiveVars[i] true.
	freq := make([]int, len(opts.AdaptiveVars))

	s := sat.New()
	s.SetSeed(rng.Int63()) // one seed: the solver's stream stays random across draws
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
		// Adaptive phase bias: bias adaptive vars toward their empirical
		// frequency once half the requested samples are in (Manthan's
		// adaptive weighted sampling).
		if len(opts.AdaptiveVars) > 0 && len(samples) >= n/2 {
			primePhases(s, opts.AdaptiveVars, freq, len(samples), rng)
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
		m := s.Model()
		samples = append(samples, m)
		for i, v := range opts.AdaptiveVars {
			if m.Get(v) == cnf.True {
				freq[i]++
			}
		}
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

// maxEnumVars is the largest variable count Sample enumerates: 2^16
// assignments fill 1,024 words. A full scan of a sparse 16-variable formula
// of 60 clauses takes 60–110 µs on a 2-CPU host, below the 0.1–1.2 ms its
// draws take, but each further variable doubles the scan while the draws
// cost about the same.
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

// enumClause is a clause compiled for enumerate. Within one word the
// variables at positions p ≥ 6 are constant, each all ones or all zeros:
// hiPos and hiNeg hold, at bit p−6, those the clause has positively and
// negatively. low is the word of assignments its literals at positions
// below 6 satisfy.
type enumClause struct {
	hiPos, hiNeg uint32
	low          uint64
}

// enumerate is Sample's exact path. When f has at most maxEnumVars
// variables and vars projects every one of them, it evaluates f on all
// 2^NumVars assignments, 64 per word (assignment a is bit a%64 of word
// a/64, variable v at position v−1), and returns every model in increasing
// order of a. ok is false when the path does not apply, and when f has more
// than n models; it then stops at the (n+1)-th.
func enumerate(f *cnf.Formula, vars []cnf.Var, n int) (models []cnf.Assignment, ok bool) {
	k := f.NumVars
	if k > maxEnumVars {
		return nil, false
	}
	var covered uint32
	for _, v := range vars {
		if v < 1 || int(v) > k {
			return nil, false
		}
		covered |= 1 << (v - 1)
	}
	if covered != 1<<k-1 {
		return nil, false
	}
	cls := make([]enumClause, len(f.Clauses))
	for i, c := range f.Clauses {
		for _, l := range c {
			if int(l.Var()) > k {
				return nil, false // a clause past NumVars: leave it to the solver
			}
			switch p := l.Var() - 1; {
			case p >= 6 && l.IsPos():
				cls[i].hiPos |= 1 << (p - 6)
			case p >= 6:
				cls[i].hiNeg |= 1 << (p - 6)
			case l.IsPos():
				cls[i].low |= lowPatterns[p]
			default:
				cls[i].low |= ^lowPatterns[p]
			}
		}
	}
	words, valid := 1, ^uint64(0)
	if k >= 6 {
		words = 1 << (k - 6)
	} else {
		valid = 1<<(1<<k) - 1 // one word, holding 2^k assignments
	}
	codes := make([]uint32, 0, min(n, 1<<k))
	for w := range uint32(words) {
		acc := valid
		for _, c := range cls {
			if w&c.hiPos != 0 || ^w&c.hiNeg != 0 {
				continue // a literal at a position ≥ 6 holds on the whole word
			}
			if acc &= c.low; acc == 0 {
				break
			}
		}
		for ; acc != 0; acc &= acc - 1 {
			if len(codes) == n {
				return nil, false
			}
			codes = append(codes, w<<6|uint32(bits.TrailingZeros64(acc)))
		}
	}
	// One backing array for every model; each model's capacity is pinned,
	// so appending to one cannot overwrite the next.
	flat := make(cnf.Assignment, len(codes)*(k+1))
	models = make([]cnf.Assignment, len(codes))
	for i, a := range codes {
		m := flat[i*(k+1) : (i+1)*(k+1) : (i+1)*(k+1)]
		for v := 1; v <= k; v++ {
			m[v] = cnf.BoolValue(a>>(v-1)&1 == 1)
		}
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

// primePhases sets the solver's saved phases for the adaptive variables so
// decisions prefer the empirically common polarity with the adaptive weight
// from the Manthan recipe (clamped to [0.1, 0.9]). freq[i] counts the
// samples, of total, that set vars[i] true.
func primePhases(s *sat.Solver, vars []cnf.Var, freq []int, total int, rng *rand.Rand) {
	if total == 0 {
		return
	}
	// Random phases remain the default for non-adaptive vars; the adaptive
	// ones are steered by lowering the random-phase frequency and priming.
	s.SetRandomPhaseFreq(0.3)
	for i, v := range vars {
		p := float64(freq[i]) / float64(total)
		if p < 0.1 {
			p = 0.1
		}
		if p > 0.9 {
			p = 0.9
		}
		s.PrimePhase(v, rng.Float64() < p)
	}
}
