package pedant

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/dqbf"
)

// init registers the definition/arbiter engine with the shared backend
// registry.
func init() {
	backend.Register(backend.NewFunc("pedant",
		func(ctx context.Context, in *dqbf.Instance, opts backend.Options) (*backend.Result, error) {
			res, err := Solve(ctx, in, Options{
				DefineWorkers:     opts.PreprocWorkers,
				SATConflictBudget: opts.SATConflictBudget,
			})
			if err != nil {
				return nil, backendErr(err)
			}
			return &backend.Result{
				Vector: res.Vector,
				Stats: fmt.Sprintf("%d iterations, %d arbiter vars, %d defined vars",
					res.Stats.Iterations, res.Stats.ArbiterVars, res.Stats.DefinedVars),
				Phases: res.Stats.Phases,
			}, nil
		}))
}

// backendErr maps the engine's sentinel errors onto the backend registry's
// shared taxonomy, preserving the original chain.
func backendErr(err error) error {
	return backend.MapEngineError(err,
		backend.ErrorClass{Engine: ErrFalse, Shared: backend.ErrFalse},
		backend.ErrorClass{Engine: ErrTooLarge, Shared: backend.ErrTooLarge},
		backend.ErrorClass{Engine: context.Canceled, Shared: backend.ErrCanceled},
		backend.ErrorClass{Engine: ErrBudget, Shared: backend.ErrBudget},
		backend.ErrorClass{Engine: ErrInternal, Shared: backend.ErrInternal},
	)
}
