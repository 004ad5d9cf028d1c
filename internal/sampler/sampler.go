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
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package sampler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

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
	// (Manthan's adaptive weighted sampling).
	AdaptiveVars []cnf.Var
	// MaxConflictsPerSample bounds solver effort per sample; 0 means 20000.
	MaxConflictsPerSample int64
	// Stats, when non-nil, receives sampling telemetry (callers feed it
	// into their per-phase oracle accounting).
	Stats *Stats
}

// Stats reports the oracle work one Sample call performed.
type Stats struct {
	// Solves counts SAT-solver calls, including budget-exhausted misses.
	Solves int64
}

// Sample draws up to n satisfying assignments of f, pairwise distinct on the
// projection to opts.Vars. It returns fewer when the formula has fewer
// distinct projected solutions or when budgets run out, and an error when the
// formula is unsatisfiable, when ctx ends before any progress-preserving
// point, or (wrapping ErrBudget) when the budgets run out before a first
// sample.
//
// One solver is loaded with f and reused across all n draws: each accepted
// sample adds a blocking clause over the projected variables (so duplicates
// are impossible by construction, and sampling runs until the projected
// solution space is exhausted), while the solver's single seeded RNG stream
// keeps branching variables and phases random from draw to draw. The
// per-draw restart costs a backtrack to level 0, not a formula reload.
//
// Cancellation is prompt: ctx is installed on the solver (polled inside each
// Solve call) and checked between draws.
func Sample(ctx context.Context, f *cnf.Formula, n int, opts Options) ([]cnf.Assignment, error) {
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
	vars := opts.Vars
	if len(vars) == 0 {
		vars = f.Vars()
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Frequency counters for adaptive bias.
	freq := make(map[cnf.Var]int)

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
	misses := 0
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
				return nil, fmt.Errorf("sampler: formula is unsatisfiable")
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
		m := s.Model()
		samples = append(samples, m)
		for _, v := range opts.AdaptiveVars {
			if m.Get(v) == cnf.True {
				freq[v]++
			}
		}
		// Forbid this projection; an inconsistent solver (empty projection
		// set) means no further distinct samples exist.
		if !s.BlockModel(vars) {
			break
		}
	}
	if len(samples) == 0 {
		// Only misses end the loop before a first sample.
		return nil, fmt.Errorf("%w: no samples produced after %d draws in a row", ErrBudget, misses)
	}
	return samples, nil
}

// primePhases sets the solver's saved phases for the adaptive variables so
// decisions prefer the empirically common polarity with the adaptive weight
// from the Manthan recipe (clamped to [0.1, 0.9]).
func primePhases(s *sat.Solver, vars []cnf.Var, freq map[cnf.Var]int, total int, rng *rand.Rand) {
	if total == 0 {
		return
	}
	// Random phases remain the default for non-adaptive vars; the adaptive
	// ones are steered by lowering the random-phase frequency and priming.
	s.SetRandomPhaseFreq(0.3)
	for _, v := range vars {
		p := float64(freq[v]) / float64(total)
		if p < 0.1 {
			p = 0.1
		}
		if p > 0.9 {
			p = 0.9
		}
		s.PrimePhase(v, rng.Float64() < p)
	}
}
