package oracle

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersSizing(t *testing.T) {
	cases := []struct{ requested, n, want int }{
		{0, 1000, min(runtime.NumCPU(), 1000)},
		{-3, 1000, min(runtime.NumCPU(), 1000)},
		{3, 1000, 3},
		{8, 5, 5},
		{4, 0, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

// TestForEachRunsEveryIndexOnce checks the claim loop at every pool size,
// including the inline one-worker path and pools larger than n.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, runtime.NumCPU()} {
		for _, n := range []int{0, 1, 5, 100} {
			calls := make([]atomic.Int32, n)
			if err := ForEach(context.Background(), workers, n, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForEachReturnsLowestFailure puts an error at one index and a panic at
// a lower one: ForEach must return the panic, as an error wrapping
// ErrPanic, and must have run every index below it.
func TestForEachReturnsLowestFailure(t *testing.T) {
	const n, panicAt, errAt = 40, 17, 23
	errItem := errors.New("item failed")
	for _, workers := range []int{1, 4} {
		var ran [n]atomic.Bool
		err := ForEach(context.Background(), workers, n, func(i int) error {
			ran[i].Store(true)
			switch i {
			case panicAt:
				panic(fmt.Sprintf("boom at %d", i))
			case errAt:
				return errItem
			}
			return nil
		})
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("workers=%d: want an ErrPanic error, got %v", workers, err)
		}
		if errors.Is(err, errItem) {
			t.Fatalf("workers=%d: returned the higher-indexed failure: %v", workers, err)
		}
		for i := 0; i < panicAt; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: index %d below the failure never ran", workers, i)
			}
		}
	}
}

// TestForEachCanceledContext checks that a stopped context fails the loop
// with ctx.Err() before any item runs.
func TestForEachCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		err := ForEach(ctx, workers, 10, func(int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if c := calls.Load(); c != 0 {
			t.Fatalf("workers=%d: fn ran %d times under a canceled context", workers, c)
		}
	}
}
