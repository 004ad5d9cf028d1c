package sampler

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
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
	// 30 distinct samples: after a run of duplicate draws the sampler blocks
	// the seen projections instead of giving up (the old `misses < 3` rule
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

// TestSampleMatchesEnumeration holds Sample to its contract against brute
// force on small random CNFs: min(n, #projected solutions) samples, each a
// model, pairwise distinct on the projection, and the same samples for the
// same seed. Requests of 2^|P|−1 and 2^|P|+5 samples reach the end of most
// projected spaces, where only blocking finishes them.
func TestSampleMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		nv := 1 + rng.Intn(10)
		f := cnf.New(nv)
		for c := rng.Intn(3 * nv); c > 0; c-- {
			cl := make([]cnf.Lit, 1+rng.Intn(3))
			for i := range cl {
				cl[i] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			f.AddClause(cl...)
		}
		perm := rng.Perm(nv)
		vars := make([]cnf.Var, 1+rng.Intn(min(nv, 8)))
		for i := range vars {
			vars[i] = cnf.Var(1 + perm[i])
		}
		checkSampleContract(t, f, vars, int64(trial))
	}
}

// FuzzSampleContract runs TestSampleMatchesEnumeration's check on a CNF read
// from the fuzzer's bytes: the first byte picks the variable count (1–10),
// the second the projection size (1–8), each later byte a literal, and a
// zero byte ends a clause.
func FuzzSampleContract(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 0}, int64(3))                               // x1 ∨ x2 on {1,2}: 3 points
	f.Add([]byte{5, 5}, int64(0))                                        // no clauses: 32 points
	f.Add([]byte{3, 1, 1, 0, 0x81, 0}, int64(1))                         // x1 ∧ ¬x1: UNSAT
	f.Add([]byte{8, 6, 1, 2, 3, 0, 0x82, 4, 0, 0x85, 6, 7, 0}, int64(7)) // a few 2–3 clauses
	f.Add([]byte{10, 8, 1, 0x82, 0, 2, 0x83, 0, 3, 0x84, 0}, int64(9))   // an implication chain
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 2 || len(data) > 64 {
			return
		}
		nv := 1 + int(data[0])%10
		fm := cnf.New(nv)
		var cl []cnf.Lit
		for _, b := range data[2:] {
			if b&0x7f == 0 {
				fm.AddClause(cl...)
				cl = cl[:0]
				continue
			}
			cl = append(cl, cnf.MkLit(cnf.Var(1+int(b&0x7f-1)%nv), b&0x80 == 0))
		}
		vars := make([]cnf.Var, min(nv, 1+int(data[1])%8))
		for i := range vars {
			vars[i] = cnf.Var(nv - i)
		}
		checkSampleContract(t, fm, vars, seed)
	})
}

// checkSampleContract samples f projected onto vars with n = 1, 2^|P|−1 and
// 2^|P|+5 and checks each call against f's projected solutions counted by
// brute force.
func checkSampleContract(t *testing.T, f *cnf.Formula, vars []cnf.Var, seed int64) {
	t.Helper()
	nv := f.NumVars
	want := map[uint]bool{}
	a := cnf.NewAssignment(nv)
	for bits := 0; bits < 1<<nv; bits++ {
		for v := 1; v <= nv; v++ {
			a.SetBool(cnf.Var(v), bits>>(v-1)&1 == 1)
		}
		if f.Eval(a) {
			want[projection(a, vars)] = true
		}
	}
	for _, n := range []int{1, 1<<len(vars) - 1, 1<<len(vars) + 5} {
		if n == 0 {
			continue // one projected variable: 2^1−1 is n = 1 again
		}
		opts := Options{Seed: seed, Vars: vars}
		got, err := Sample(context.Background(), f, n, opts)
		if len(want) == 0 {
			if err == nil || errors.Is(err, ErrBudget) {
				t.Fatalf("%v on %v: UNSAT formula gave %d samples, err %v", f.Clauses, vars, len(got), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v on %v, n=%d: %v", f.Clauses, vars, n, err)
		}
		if len(got) != min(n, len(want)) {
			t.Fatalf("%v on %v, n=%d: %d samples, want %d of %d projected solutions",
				f.Clauses, vars, n, len(got), min(n, len(want)), len(want))
		}
		seen := map[uint]bool{}
		for i, m := range got {
			if !f.Eval(m) {
				t.Fatalf("%v, n=%d: sample %d is not a model", f.Clauses, n, i)
			}
			p := projection(m, vars)
			if seen[p] {
				t.Fatalf("%v on %v, n=%d: sample %d repeats projection %b", f.Clauses, vars, n, i, p)
			}
			seen[p] = true
		}
		again, err := Sample(context.Background(), f, n, opts)
		if err != nil || len(again) != len(got) {
			t.Fatalf("%v, n=%d: second call gave %d samples, err %v; first gave %d", f.Clauses, n, len(again), err, len(got))
		}
		for i := range got {
			if !slices.Equal(got[i], again[i]) {
				t.Fatalf("%v, n=%d: sample %d differs between two calls with seed %d", f.Clauses, n, i, seed)
			}
		}
	}
}

// projection packs m's values of vars into bits, vars[k] at bit k.
func projection(m cnf.Assignment, vars []cnf.Var) uint {
	p := uint(0)
	for k, v := range vars {
		if m.Get(v) == cnf.True {
			p |= 1 << k
		}
	}
	return p
}

// TestSampleLargeSpaceNeverBlocks: 400 draws from 2^30 projected points all
// find new projections, so no draw is a duplicate (Stats.Solves = 400) and
// the sampler never switches to blocking.
func TestSampleLargeSpaceNeverBlocks(t *testing.T) {
	const nv = 30
	f := cnf.New(nv)
	for v := cnf.Var(1); v <= nv; v++ {
		f.AddClause(cnf.PosLit(v), cnf.NegLit(v))
	}
	var st Stats
	samples, err := Sample(context.Background(), f, 400, Options{Seed: 5, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 400 || st.Solves != 400 {
		t.Fatalf("got %d samples in %d solves, want 400 in 400", len(samples), st.Solves)
	}
}

// TestSampleAllocatesOnlyModels: a draw allocates nothing beyond the model
// of a sample it accepts. Loading the formula and sizing the tables take
// 40–80 allocations per call on these instances, so one allocation per
// draw (406–609 draws here) would break the bound; controller-000-h1's
// draws repeat until the sampler switches to blocking.
func TestSampleAllocatesOnlyModels(t *testing.T) {
	for _, c := range []struct {
		fam gen.Family
		idx int
	}{{gen.FamilyRandom, 2}, {gen.FamilyController, 0}, {gen.FamilyEquiv, 0}, {gen.FamilySAT2DQBF, 4}} {
		in := gen.Generate(c.fam, c.idx, 1).DQBF
		var st Stats
		opts := Options{
			Seed:         1,
			Vars:         append(append([]cnf.Var(nil), in.Univ...), in.Exist...),
			AdaptiveVars: in.Exist,
			Stats:        &st,
		}
		n := 0
		allocs := testing.AllocsPerRun(2, func() {
			st = Stats{}
			samples, err := Sample(context.Background(), in.Matrix, 400, opts)
			if err != nil {
				t.Fatal(err)
			}
			n = len(samples)
		})
		if allocs > float64(n+128) {
			t.Errorf("%s-%d: %.0f allocations for %d samples in %d draws, want at most %d",
				c.fam, c.idx, allocs, n, st.Solves, n+128)
		}
	}
}
