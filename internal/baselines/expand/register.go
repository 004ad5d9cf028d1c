package expand

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/dqbf"
)

// init registers the expansion engine with the shared backend registry as
// "expand".
func init() {
	backend.Register(backend.NewFunc("expand",
		func(ctx context.Context, in *dqbf.Instance, opts backend.Options) (*backend.Result, error) {
			res, err := Solve(ctx, in, Options{SATConflictBudget: opts.SATConflictBudget})
			if err != nil {
				return nil, backendErr(err)
			}
			return &backend.Result{
				Vector: res.Vector,
				Stats: fmt.Sprintf("%d rows, %d table cells, %d instantiated clauses",
					res.Stats.Rows, res.Stats.TableCells, res.Stats.ClausesOut),
				Phases: res.Stats.Phases,
			}, nil
		}))
}

// backendErr maps the engine's sentinel errors onto the backend registry's
// shared taxonomy, preserving the original chain. Cancellation is detected
// through the wrapped ctx error inside ErrBudget.
func backendErr(err error) error {
	return backend.MapEngineError(err,
		backend.ErrorClass{Engine: ErrFalse, Shared: backend.ErrFalse},
		backend.ErrorClass{Engine: ErrTooLarge, Shared: backend.ErrTooLarge},
		backend.ErrorClass{Engine: context.Canceled, Shared: backend.ErrCanceled},
		backend.ErrorClass{Engine: ErrBudget, Shared: backend.ErrBudget},
	)
}
