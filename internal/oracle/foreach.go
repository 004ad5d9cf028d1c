package oracle

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPanic marks a panic that ForEach recovered on the goroutine that raised
// it. The error wraps it together with the item index, the panic value and
// that goroutine's stack; each engine maps it onto its own ErrInternal.
var ErrPanic = errors.New("oracle: worker panicked")

// Workers sizes a worker pool for n items: requested when positive,
// runtime.NumCPU() otherwise, and never more than n or less than 1. Callers
// that size a Pool to their ForEach worker count use it so the two agree.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return max(1, min(w, n))
}

// ForEach calls fn(i) for every i in [0, n) on Workers(workers, n)
// goroutines and returns the failure with the lowest index, or nil.
//
//   - Indices are claimed in increasing order. Once an item fails, no new
//     index is claimed, but every claimed one runs to completion, so every
//     index below the returned failure has run.
//   - With one worker the items run inline on the caller's goroutine, in
//     index order, and the first failure stops the loop.
//   - Before each item the context is checked; a stopped ctx fails that
//     index with ctx.Err() and fn is not called for it.
//   - A panic inside fn is recovered on the goroutine that raised it (a
//     recover anywhere else cannot see it) and fails its index with an
//     error wrapping ErrPanic.
//
// fn runs concurrently with itself for distinct indices, so it may write
// only state owned by its index and must read shared state read-only.
// Results that depend on which solver answers a query (UNSAT cores,
// models) stay deterministic when the caller binds items to solvers by
// index, as the batched repair probes of internal/core do.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := callSafe(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		first    = n // lowest failed index so far
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = callSafe(fn, i)
				}
				if err != nil {
					mu.Lock()
					if i < first {
						first, firstErr = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// callSafe runs fn(i) and turns a panic into an error wrapping ErrPanic.
func callSafe(fn func(int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: item %d: %v\n%s", ErrPanic, i, p, debug.Stack())
		}
	}()
	return fn(i)
}
