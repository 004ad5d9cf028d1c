package sampler

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/sat"
)

// samplers are the two entry points the small-space tests run: Sample,
// whose exact path answers most of these formulas, and its draw loop alone,
// so the loop's blocking switch keeps its coverage on small spaces.
var samplers = []struct {
	name string
	fn   func(context.Context, *cnf.Formula, int, Options) ([]cnf.Assignment, error)
}{{"Sample", Sample}, {"draw", draw}}

func TestSampleBasic(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-3, 4)
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 10, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		if len(samples) == 0 {
			t.Fatalf("%s: no samples", sm.name)
		}
		for i, m := range samples {
			if !f.Eval(m) {
				t.Fatalf("%s: sample %d does not satisfy formula", sm.name, i)
			}
		}
	}
}

func TestSampleDiversity(t *testing.T) {
	// Unconstrained 6 vars: 64 solutions; asking for 20 distinct samples
	// should find many distinct projections.
	f := cnf.New(6)
	f.AddClause(1, -1) // keep vars present
	vars := []cnf.Var{1, 2, 3, 4, 5, 6}
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 20, Options{Seed: 7, Vars: vars})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
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
				t.Fatalf("%s: duplicate sample %s returned", sm.name, key)
			}
			seen[key] = true
		}
		if len(seen) < 10 {
			t.Fatalf("%s: only %d distinct samples of 20 requested", sm.name, len(seen))
		}
	}
}

func TestSampleExhaustsSolutionSpace(t *testing.T) {
	// x1 ∨ x2 has 3 solutions over vars {1,2}; requesting more stops early.
	f := cnf.New(2)
	f.AddClause(1, 2)
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 50, Options{Seed: 3, Vars: []cnf.Var{1, 2}})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		if len(samples) == 0 || len(samples) > 3 {
			t.Fatalf("%s: got %d samples, want 1..3 (distinct projections)", sm.name, len(samples))
		}
	}
}

func TestSampleUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddUnit(1)
	f.AddUnit(-1)
	for _, sm := range samplers {
		if _, err := sm.fn(context.Background(), f, 5, Options{Seed: 1}); err == nil {
			t.Fatalf("%s: UNSAT formula sampled", sm.name)
		}
	}
}

func TestSampleZeroRequested(t *testing.T) {
	f := cnf.New(1)
	f.AddUnit(1)
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 0, Options{})
		if err != nil || samples != nil {
			t.Fatalf("%s: zero request: %v %v", sm.name, samples, err)
		}
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	f := cnf.New(5)
	f.AddClause(1, 2, 3)
	f.AddClause(-2, 4)
	f.AddClause(-4, 5)
	for _, sm := range samplers {
		a, err := sm.fn(context.Background(), f, 8, Options{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		b, err := sm.fn(context.Background(), f, 8, Options{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic count: %d vs %d", sm.name, len(a), len(b))
		}
		for i := range a {
			for v := 1; v <= 5; v++ {
				if a[i].Get(cnf.Var(v)) != b[i].Get(cnf.Var(v)) {
					t.Fatalf("%s: sample %d differs at var %d", sm.name, i, v)
				}
			}
		}
	}
}

func TestAdaptiveSamplingStillSatisfying(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	f.AddClause(4, 5, 6)
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 16, Options{
			Seed:         9,
			AdaptiveVars: []cnf.Var{4, 5, 6},
		})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		for i, m := range samples {
			if !f.Eval(m) {
				t.Fatalf("%s: adaptive sample %d invalid", sm.name, i)
			}
		}
	}
}

func TestSampleCoversBothPolarities(t *testing.T) {
	// A free variable should appear with both polarities across samples.
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 12, Options{Seed: 11, Vars: []cnf.Var{1, 2, 3}})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
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
			t.Fatalf("%s: sampler not diverse on free variable: true=%v false=%v (n=%d)",
				sm.name, sawTrue, sawFalse, len(samples))
		}
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
	for _, sm := range samplers {
		for seed := int64(0); seed < 5; seed++ {
			samples, err := sm.fn(context.Background(), f, 30, Options{Seed: seed, Vars: vars})
			if err != nil {
				t.Fatalf("%s, seed %d: %v", sm.name, seed, err)
			}
			if len(samples) != 30 {
				t.Fatalf("%s, seed %d: got %d samples, want 30 (32 exist)", sm.name, seed, len(samples))
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
					t.Fatalf("%s, seed %d: duplicate projection %s", sm.name, seed, key)
				}
				seen[key] = true
			}
		}
	}
}

func TestSampleExhaustsExactSolutionCount(t *testing.T) {
	// x1 ∨ x2 has exactly 3 distinct projections on {1,2}; the exact path
	// and the draw loop's blocking clauses must each find all 3, then stop.
	f := cnf.New(2)
	f.AddClause(1, 2)
	for _, sm := range samplers {
		samples, err := sm.fn(context.Background(), f, 50, Options{Seed: 3, Vars: []cnf.Var{1, 2}})
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		if len(samples) != 3 {
			t.Fatalf("%s: got %d samples, want exactly 3", sm.name, len(samples))
		}
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

// TestSampleMatchesEnumeration holds Sample and its draw loop to their
// contract against brute force on small random CNFs: min(n, #projected
// solutions) samples, each a model, pairwise distinct on the projection, and
// the same samples for the same seed. Requests of 2^|P|−1 and 2^|P|+5
// samples reach the end of most projected spaces, where only blocking
// finishes the draw loop.
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
// zero byte ends a clause. A projection onto every variable (of at most 8)
// takes Sample's exact path whenever the request covers the models, and
// checkSampleContract then also holds it to the draw loop.
func FuzzSampleContract(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 0}, int64(3))                                                 // x1 ∨ x2 on {1,2}: 3 points
	f.Add([]byte{5, 5}, int64(0))                                                          // no clauses: 32 points
	f.Add([]byte{3, 1, 1, 0, 0x81, 0}, int64(1))                                           // x1 ∧ ¬x1: UNSAT
	f.Add([]byte{8, 6, 1, 2, 3, 0, 0x82, 4, 0, 0x85, 6, 7, 0}, int64(7))                   // a few 2–3 clauses
	f.Add([]byte{10, 8, 1, 0x82, 0, 2, 0x83, 0, 3, 0x84, 0}, int64(9))                     // an implication chain
	f.Add([]byte{7, 7, 1, 2, 3, 0, 0x84, 5, 0x86, 0, 7, 0x88, 0, 0x81, 0x87, 0}, int64(4)) // all 8 projected
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
// brute force. When vars covers every variable, Sample may take its exact
// path, so the draw loop runs too, under the same checks, and Sample's
// output must match its output (see checkSameAsDrawLoop).
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
	full := len(vars) == nv
	for _, n := range []int{1, 1<<len(vars) - 1, 1<<len(vars) + 5} {
		if n == 0 {
			continue // one projected variable: 2^1−1 is n = 1 again
		}
		opts := Options{Seed: seed, Vars: vars}
		entries := samplers[:1] // with a variable left out, Sample is the draw loop
		if full {
			entries = samplers
		}
		outs := make([][]cnf.Assignment, len(entries))
		for k, sm := range entries {
			got, err := sm.fn(context.Background(), f, n, opts)
			if len(want) == 0 {
				if err == nil || errors.Is(err, ErrBudget) {
					t.Fatalf("%s: %v on %v: UNSAT formula gave %d samples, err %v", sm.name, f.Clauses, vars, len(got), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v on %v, n=%d: %v", sm.name, f.Clauses, vars, n, err)
			}
			if len(got) != min(n, len(want)) {
				t.Fatalf("%s: %v on %v, n=%d: %d samples, want %d of %d projected solutions",
					sm.name, f.Clauses, vars, n, len(got), min(n, len(want)), len(want))
			}
			seen := map[uint]bool{}
			for i, m := range got {
				if !f.Eval(m) {
					t.Fatalf("%s: %v, n=%d: sample %d is not a model", sm.name, f.Clauses, n, i)
				}
				p := projection(m, vars)
				if seen[p] {
					t.Fatalf("%s: %v on %v, n=%d: sample %d repeats projection %b", sm.name, f.Clauses, vars, n, i, p)
				}
				seen[p] = true
			}
			again, err := sm.fn(context.Background(), f, n, opts)
			if err != nil || len(again) != len(got) {
				t.Fatalf("%s: %v, n=%d: second call gave %d samples, err %v; first gave %d", sm.name, f.Clauses, n, len(again), err, len(got))
			}
			for i := range got {
				if !slices.Equal(got[i], again[i]) {
					t.Fatalf("%s: %v, n=%d: sample %d differs between two calls with seed %d", sm.name, f.Clauses, n, i, seed)
				}
			}
			outs[k] = got
		}
		if full && len(want) > 0 {
			checkSameAsDrawLoop(t, f, n, len(want), outs[0], outs[1]) // samplers lists Sample, then draw
		}
	}
}

// checkSameAsDrawLoop holds Sample's output got on f, which has models
// models, all projected, to the draw loop's output drawn under the same
// options: the same set of models when f has at most n, and the same
// slice, sample for sample, when the exact path declined.
func checkSameAsDrawLoop(t *testing.T, f *cnf.Formula, n, models int, got, drawn []cnf.Assignment) {
	t.Helper()
	if models <= n {
		byCode := func(a, b cnf.Assignment) int { return cmp.Compare(code(a), code(b)) }
		drawn = slices.Clone(drawn)
		slices.SortFunc(drawn, byCode)
		if !slices.IsSortedFunc(got, byCode) {
			t.Fatalf("%v, n=%d: enumerated models out of order", f.Clauses, n)
		}
	}
	if len(got) != len(drawn) {
		t.Fatalf("%v, n=%d: Sample gave %d models, the draw loop %d", f.Clauses, n, len(got), len(drawn))
	}
	for i := range got {
		if !slices.Equal(got[i], drawn[i]) {
			t.Fatalf("%v, n=%d (%d models): Sample's model %d is %v, the draw loop's %v", f.Clauses, n, models, i, got[i], drawn[i])
		}
	}
}

// code reads a total assignment as a binary number, variable v at bit v−1:
// the order Sample's exact path returns models in.
func code(m cnf.Assignment) uint {
	c := uint(0)
	for v := 1; v < len(m); v++ {
		if m[v] == cnf.True {
			c |= 1 << (v - 1)
		}
	}
	return c
}

// TestEnumerateMatchesDrawLoop pins the argument that Sample's exact path
// moves no certificate, on random CNFs of 1–16 variables, all projected,
// with n ∈ {1, M−1, M, M+5} for M models. For M ≤ n, Sample returns every
// model in increasing order, and the draw loop returns the same set. For
// M > n, Sample's scan declines, and its slice is the draw loop's, sample
// for sample. Formulas of more than 2,048 models are skipped: drawing that
// many models one blocking clause at a time takes seconds.
func TestEnumerateMatchesDrawLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	checked, big, enumerated, declined := 0, 0, 0, 0
	for trial := 0; trial < 240; trial++ {
		nv := 1 + rng.Intn(maxEnumVars)
		f := cnf.New(nv)
		for c := rng.Intn(3*nv + 2); c > 0; c-- {
			cl := make([]cnf.Lit, 1+rng.Intn(3))
			for i := range cl {
				cl[i] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			f.AddClause(cl...)
		}
		vars := make([]cnf.Var, nv)
		for i, p := range rng.Perm(nv) {
			vars[i] = cnf.Var(1 + p)
		}
		var want []cnf.Assignment // every model, in increasing order
		a := cnf.NewAssignment(nv)
		for code := 0; code < 1<<nv; code++ {
			for v := 1; v <= nv; v++ {
				a.SetBool(cnf.Var(v), code>>(v-1)&1 == 1)
			}
			if f.Eval(a) {
				want = append(want, a.Clone())
			}
		}
		m := len(want)
		if m > 2048 {
			continue
		}
		checked++
		if nv > 12 {
			big++
		}
		for _, n := range []int{1, m - 1, m, m + 5} {
			if n <= 0 {
				continue
			}
			opts := Options{Seed: int64(trial), Vars: vars, AdaptiveVars: vars[:nv/2]}
			var st Stats
			withStats := opts
			withStats.Stats = &st
			got, err := Sample(context.Background(), f, n, withStats)
			if m == 0 {
				if err == nil || errors.Is(err, ErrBudget) || st.Solves != 0 {
					t.Fatalf("trial %d: UNSAT formula: %d samples, err %v, %d solves", trial, len(got), err, st.Solves)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d, n=%d: %v", trial, n, err)
			}
			if m <= n {
				enumerated++
				if st.Solves != 0 {
					t.Fatalf("trial %d, n=%d: %d models took %d solves, want the exact path", trial, n, m, st.Solves)
				}
				if len(got) != m {
					t.Fatalf("trial %d, n=%d: %d samples of %d models", trial, n, len(got), m)
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("trial %d, n=%d: model %d is %v, brute force %v", trial, n, i, got[i], want[i])
					}
				}
			} else {
				declined++
			}
			drawn, err := draw(context.Background(), f, n, opts)
			if err != nil {
				t.Fatalf("trial %d, n=%d: draw loop: %v", trial, n, err)
			}
			checkSameAsDrawLoop(t, f, n, m, got, drawn)
		}
	}
	if checked < 150 || big < 20 || enumerated == 0 || declined == 0 {
		t.Fatalf("only %d formulas checked (%d of more than 12 variables), %d calls enumerated and %d declined",
			checked, big, enumerated, declined)
	}
	t.Logf("%d formulas (%d of more than 12 variables): %d calls enumerated, %d declined", checked, big, enumerated, declined)
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
// draw (406–609 draws here) would break the bound. Sample enumerates
// controller-000-h1 in a handful of allocations, so the draw loop runs on
// every instance too: on controller-000-h1 its draws repeat until it
// switches to blocking.
func TestSampleAllocatesOnlyModels(t *testing.T) {
	for _, c := range []struct {
		fam gen.Family
		idx int
	}{{gen.FamilyRandom, 2}, {gen.FamilyController, 0}, {gen.FamilyEquiv, 0}, {gen.FamilySAT2DQBF, 4}} {
		in := gen.Generate(c.fam, c.idx, 1).DQBF
		for _, sm := range samplers {
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
				samples, err := sm.fn(context.Background(), in.Matrix, 400, opts)
				if err != nil {
					t.Fatal(err)
				}
				n = len(samples)
			})
			if allocs > float64(n+128) {
				t.Errorf("%s: %s-%d: %.0f allocations for %d samples in %d draws, want at most %d",
					sm.name, c.fam, c.idx, allocs, n, st.Solves, n+128)
			}
		}
	}
}
