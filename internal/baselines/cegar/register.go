package cegar

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/dqbf"
)

// init registers the CEGAR 2-QBF engine with the shared backend registry.
// Non-Skolem instances are outside its fragment and map to
// backend.ErrUnsupported.
func init() {
	backend.Register(backend.NewFunc("cegar",
		func(ctx context.Context, in *dqbf.Instance, opts backend.Options) (*backend.Result, error) {
			res, err := Solve(ctx, in, Options{SATConflictBudget: opts.SATConflictBudget})
			if err != nil {
				return nil, backendErr(err)
			}
			return &backend.Result{
				Vector: res.Vector,
				Stats: fmt.Sprintf("%d iterations, %d strategy moves",
					res.Stats.Iterations, res.Stats.Moves),
				Phases: res.Stats.Phases,
			}, nil
		}))
}

// backendErr maps the engine's sentinel errors onto the backend registry's
// shared taxonomy, preserving the original chain.
func backendErr(err error) error {
	return backend.MapEngineError(err,
		backend.ErrorClass{Engine: ErrFalse, Shared: backend.ErrFalse},
		backend.ErrorClass{Engine: ErrNotSkolem, Shared: backend.ErrUnsupported},
		backend.ErrorClass{Engine: context.Canceled, Shared: backend.ErrCanceled},
		backend.ErrorClass{Engine: ErrBudget, Shared: backend.ErrBudget},
	)
}
