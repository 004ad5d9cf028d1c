package sampler

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

func TestSampleBasic(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-3, 4)
	samples, err := Sample(context.Background(), f, 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i, m := range samples {
		if !f.Eval(m) {
			t.Fatalf("sample %d does not satisfy formula", i)
		}
	}
}

func TestSampleDiversity(t *testing.T) {
	// Unconstrained 6 vars: 64 solutions; asking for 20 distinct samples
	// should find many distinct projections.
	f := cnf.New(6)
	f.AddClause(1, -1) // keep vars present
	vars := []cnf.Var{1, 2, 3, 4, 5, 6}
	samples, err := Sample(context.Background(), f, 20, Options{Seed: 7, Vars: vars})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, m := range samples {
		key := ""
		for _, v := range vars {
			if m.Get(v) == cnf.True {
				key += "1"
			} else {
				key += "0"
			}
		}
		if seen[key] {
			t.Fatalf("duplicate sample %s returned", key)
		}
		seen[key] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct samples of 20 requested", len(seen))
	}
}

func TestSampleExhaustsSolutionSpace(t *testing.T) {
	// x1 ∨ x2 has 3 solutions over vars {1,2}; requesting more stops early.
	f := cnf.New(2)
	f.AddClause(1, 2)
	samples, err := Sample(context.Background(), f, 50, Options{Seed: 3, Vars: []cnf.Var{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(samples) > 3 {
		t.Fatalf("got %d samples, want 1..3 (distinct projections)", len(samples))
	}
}

func TestSampleUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddUnit(1)
	f.AddUnit(-1)
	if _, err := Sample(context.Background(), f, 5, Options{Seed: 1}); err == nil {
		t.Fatal("UNSAT formula sampled")
	}
}

func TestSampleZeroRequested(t *testing.T) {
	f := cnf.New(1)
	f.AddUnit(1)
	samples, err := Sample(context.Background(), f, 0, Options{})
	if err != nil || samples != nil {
		t.Fatalf("zero request: %v %v", samples, err)
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	f := cnf.New(5)
	f.AddClause(1, 2, 3)
	f.AddClause(-2, 4)
	f.AddClause(-4, 5)
	a, err := Sample(context.Background(), f, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(context.Background(), f, 8, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for v := 1; v <= 5; v++ {
			if a[i].Get(cnf.Var(v)) != b[i].Get(cnf.Var(v)) {
				t.Fatalf("sample %d differs at var %d", i, v)
			}
		}
	}
}

func TestAdaptiveSamplingStillSatisfying(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	f.AddClause(4, 5, 6)
	samples, err := Sample(context.Background(), f, 16, Options{
		Seed:         9,
		AdaptiveVars: []cnf.Var{4, 5, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range samples {
		if !f.Eval(m) {
			t.Fatalf("adaptive sample %d invalid", i)
		}
	}
}

func TestSampleCoversBothPolarities(t *testing.T) {
	// A free variable should appear with both polarities across samples.
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	samples, err := Sample(context.Background(), f, 12, Options{Seed: 11, Vars: []cnf.Var{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	sawTrue, sawFalse := false, false
	for _, m := range samples {
		if m.Get(1) == cnf.True {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatalf("sampler not diverse on free variable: true=%v false=%v (n=%d)",
			sawTrue, sawFalse, len(samples))
	}
}

func TestSampleReturnsAllDistinctWhenAvailable(t *testing.T) {
	// 5 free variables → 32 distinct projections. Requesting 30 must return
	// 30 distinct samples: the sampler blocks seen projections instead of
	// giving up after a run of duplicate draws (the old `misses < 3` rule
	// silently shrank training data long before the space was exhausted).
	f := cnf.New(5)
	f.AddClause(1, -1)
	vars := []cnf.Var{1, 2, 3, 4, 5}
	for seed := int64(0); seed < 5; seed++ {
		samples, err := Sample(context.Background(), f, 30, Options{Seed: seed, Vars: vars})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(samples) != 30 {
			t.Fatalf("seed %d: got %d samples, want 30 (32 exist)", seed, len(samples))
		}
		seen := make(map[string]bool)
		for _, m := range samples {
			key := ""
			for _, v := range vars {
				if m.Get(v) == cnf.True {
					key += "1"
				} else {
					key += "0"
				}
			}
			if seen[key] {
				t.Fatalf("seed %d: duplicate projection %s", seed, key)
			}
			seen[key] = true
		}
	}
}

func TestSampleExhaustsExactSolutionCount(t *testing.T) {
	// x1 ∨ x2 has exactly 3 distinct projections on {1,2}; with blocking
	// clauses the sampler must enumerate all 3, then stop.
	f := cnf.New(2)
	f.AddClause(1, 2)
	samples, err := Sample(context.Background(), f, 50, Options{Seed: 3, Vars: []cnf.Var{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want exactly 3", len(samples))
	}
}

func TestSampleBudgetExhaustedIsErrBudget(t *testing.T) {
	// A satisfiable random 3-SAT formula near the phase transition: its draws
	// run into conflicts before they reach a model, so with one conflict per
	// draw the first three draws miss and no sample is produced.
	rng := rand.New(rand.NewSource(1))
	const nv = 60
	f := cnf.New(nv)
	for c := 0; c < 256; c++ {
		f.AddClause(cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0),
			cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0),
			cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
	}
	s := sat.New()
	s.AddFormula(f)
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("formula is %v, want satisfiable", st)
	}
	_, err := Sample(context.Background(), f, 10, Options{Seed: 1, MaxConflictsPerSample: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want an ErrBudget error", err)
	}
}
