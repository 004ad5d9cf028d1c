package core

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/dqbf"
)

// init registers the Manthan3 engine with the shared backend registry — the
// single dispatch path used by cmd/manthan3, cmd/benchrunner, and
// internal/bench.
func init() {
	backend.Register(backend.NewFunc("manthan3",
		func(ctx context.Context, in *dqbf.Instance, opts backend.Options) (*backend.Result, error) {
			res, err := Synthesize(ctx, in, Options{
				Seed:              opts.Seed,
				SATConflictBudget: opts.SATConflictBudget,
				Logf:              opts.Logf,
			})
			if err != nil {
				return nil, backendErr(err)
			}
			stats := fmt.Sprintf("%d samples, %d verify calls, %d repair iterations, %d repairs (%d row repairs, %d row oscillations), %d unates, %d defined, %d oracle calls",
				res.Stats.Samples, res.Stats.VerifyCalls, res.Stats.RepairIterations,
				res.Stats.CandidatesRepaired, res.Stats.RowRepairs, res.Stats.RowOscillations,
				res.Stats.UnatesDetected, res.Stats.DefinedVars, res.Stats.OracleCalls)
			if opts.Logf != nil {
				// Verbose runs also report the aggregated SAT-solver counters:
				// conflicts, restarts, learnt tiers and glue.
				ss := res.Stats.SAT
				avgGlue := 0.0
				if ss.LearntClauses > 0 {
					avgGlue = float64(ss.LBDSum) / float64(ss.LearntClauses)
				}
				stats += fmt.Sprintf("; sat: %d conflicts, %d restarts, tiers %d/%d/%d, avg glue %.2f",
					ss.Conflicts, ss.Restarts, ss.TierCore, ss.TierMid, ss.TierLocal, avgGlue)
			}
			return &backend.Result{
				Vector: res.Vector,
				Stats:  stats,
				Phases: res.Stats.Phases,
			}, nil
		}))
}

// backendErr maps the engine's sentinel errors onto the backend registry's
// shared taxonomy, preserving the original chain.
func backendErr(err error) error {
	return backend.MapEngineError(err,
		backend.ErrorClass{Engine: ErrFalse, Shared: backend.ErrFalse},
		backend.ErrorClass{Engine: ErrIncomplete, Shared: backend.ErrIncomplete},
		backend.ErrorClass{Engine: ErrCanceled, Shared: backend.ErrCanceled},
		backend.ErrorClass{Engine: ErrBudget, Shared: backend.ErrBudget},
		backend.ErrorClass{Engine: ErrInternal, Shared: backend.ErrInternal},
	)
}
