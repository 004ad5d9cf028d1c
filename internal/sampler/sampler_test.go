package sampler

import (
	"cmp"
	"context"
	"errors"
	"fmt"
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
	_, err := Sample(context.Background(), f, 10, Options{Seed: 1, maxConflicts: 1})
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
		checkSampleContract(t, f, Options{Seed: int64(trial), Vars: vars})
	}
}

// FuzzSampleContract runs TestSampleMatchesEnumeration's check on a CNF read
// from the fuzzer's bytes. In data, the first byte picks the number of
// base variables (1–10), the second the projection size (1–8), each later
// byte a literal over the base variables, and a zero byte ends a clause.
// gates adds gate definitions: its first byte marks, at bit i, base
// variable i+1 as existential, and each following group of four bytes
// defines one more variable, numbered down from the top so that a gate
// reads gates defined later in declaration order: three input bytes (the
// high bit drops the input; otherwise it picks a base variable or an
// earlier gate) and the truth table. Each gate's clauses join the CNF, so
// it holds in every model. A projection onto every base variable (at most
// 8) takes Sample's exact path, and checkSampleContract then also holds it
// to the draw loop. Each input is checked a second time with the scan bound
// lowered so that such a projection takes the row path instead.
func FuzzSampleContract(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 0}, []byte(nil), int64(3))                                                 // x1 ∨ x2 on {1,2}: 3 points
	f.Add([]byte{5, 5}, []byte(nil), int64(0))                                                          // no clauses: 32 points
	f.Add([]byte{3, 1, 1, 0, 0x81, 0}, []byte(nil), int64(1))                                           // x1 ∧ ¬x1: UNSAT
	f.Add([]byte{8, 6, 1, 2, 3, 0, 0x82, 4, 0, 0x85, 6, 7, 0}, []byte(nil), int64(7))                   // a few 2–3 clauses
	f.Add([]byte{10, 8, 1, 0x82, 0, 2, 0x83, 0, 3, 0x84, 0}, []byte(nil), int64(9))                     // an implication chain
	f.Add([]byte{7, 7, 1, 2, 3, 0, 0x84, 5, 0x86, 0, 7, 0x88, 0, 0x81, 0x87, 0}, []byte(nil), int64(4)) // all 8 projected
	f.Add([]byte{4, 4, 1, 2, 0}, []byte{0x0c, 0, 1, 0x80, 0x8, 4, 2, 0x80, 0x6}, int64(5))              // AND of x1, x2 read by an XOR: 2 existentials
	f.Add([]byte{6, 6, 0x81, 3, 0}, []byte{0x30, 0, 1, 2, 0xe8, 6, 3, 0x80, 0x9}, int64(2))             // majority read by an XNOR
	f.Fuzz(func(t *testing.T, data, gates []byte, seed int64) {
		if len(data) < 2 || len(data) > 64 || len(gates) > 13 {
			return
		}
		nv := 1 + int(data[0])%10
		var exist []cnf.Var
		if len(gates) > 0 {
			for v := 1; v <= min(nv, 8); v++ {
				if gates[0]>>(v-1)&1 != 0 {
					exist = append(exist, cnf.Var(v))
				}
			}
			gates = gates[1:]
		}
		g := len(gates) / 4
		fm := cnf.New(nv + g)
		var cl []cnf.Lit
		for _, b := range data[2:] {
			if b&0x7f == 0 {
				fm.AddClause(cl...)
				cl = cl[:0]
				continue
			}
			cl = append(cl, cnf.MkLit(cnf.Var(1+int(b&0x7f-1)%nv), b&0x80 == 0))
		}
		pool := make([]cnf.Var, 0, nv+g)
		for v := 1; v <= nv; v++ {
			pool = append(pool, cnf.Var(v))
		}
		defs := make([]Def, g)
		for i := range defs {
			d := Def{Out: cnf.Var(nv + g - i)}
			for _, b := range gates[4*i : 4*i+3] {
				if v := pool[int(b)%len(pool)]; b&0x80 == 0 && !slices.Contains(d.In, v) {
					d.In = append(d.In, v)
				}
			}
			d.Table = gates[4*i+3] & uint8(1<<(1<<len(d.In))-1)
			addGateClauses(fm, d)
			defs[i] = d
			pool = append(pool, d.Out)
		}
		vars := make([]cnf.Var, min(nv, 1+int(data[1])%8))
		for i := range vars {
			vars[i] = cnf.Var(nv - i)
		}
		opts := Options{Seed: seed, Vars: vars, Defs: defs, Exist: exist}
		checkSampleContract(t, fm, opts)
		opts.scanVars = -1
		checkSampleContract(t, fm, opts)
	})
}

// addGateClauses adds to f the clauses that force d.Out to its gate: one
// per row of the truth table.
func addGateClauses(f *cnf.Formula, d Def) {
	for r := 0; r < 1<<len(d.In); r++ {
		cl := make([]cnf.Lit, 0, len(d.In)+1)
		for j, v := range d.In {
			cl = append(cl, cnf.MkLit(v, r>>j&1 == 0)) // false exactly on row r
		}
		f.AddClause(append(cl, cnf.MkLit(d.Out, d.Table>>r&1 != 0))...)
	}
}

// checkSampleContract samples f under opts with n = 1, 2^|P|−1 and 2^|P|+5
// and checks each call against brute force. The draw loop must return
// min(n, #projected solutions) samples, each a model, pairwise distinct on
// the projection, and the same samples for the same seed. When every
// variable is projected or defined, Sample takes the exact path, unless
// opts lowers the scan bound below the support: its output must then keep
// checkSupportSample's contract and, when f has at most n models, be the
// draw loop's set. Below the bound Sample takes the row path, whose output
// must keep checkRowSample's contract, or declines, and then returns the
// draw loop's samples. Otherwise Sample is the draw loop.
func checkSampleContract(t *testing.T, f *cnf.Formula, opts Options) {
	t.Helper()
	vars := opts.Vars
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
	determined := map[cnf.Var]bool{}
	for _, v := range vars {
		determined[v] = true
	}
	for _, d := range opts.Defs {
		determined[d.Out] = true
	}
	exact := len(determined) == nv
	var ref supportRef
	if exact {
		ref = newSupportRef(f, opts)
	}
	for _, n := range []int{1, 1<<len(vars) - 1, 1<<len(vars) + 5} {
		if n == 0 {
			continue // one projected variable: 2^1−1 is n = 1 again
		}
		outs := make([][]cnf.Assignment, len(samplers))
		var path Path
		for k, sm := range samplers {
			var st Stats
			withStats := opts
			withStats.Stats = &st
			got, err := sm.fn(context.Background(), f, n, withStats)
			if sm.name == "Sample" {
				path = st.Path
				switch {
				case !exact && path != PathDrawn:
					t.Fatalf("%v on %v, n=%d: Sample took path %v with a variable neither projected nor defined", f.Clauses, vars, n, path)
				case exact && opts.scanVars == 0 && path != PathScanned:
					t.Fatalf("%v on %v, n=%d: Sample took path %v, want the exact path", f.Clauses, vars, n, path)
				case path != PathDrawn && st.Solves != 0:
					t.Fatalf("%v on %v, n=%d: path %v made %d solves", f.Clauses, vars, n, path, st.Solves)
				}
			}
			if len(want) == 0 {
				if err == nil || errors.Is(err, ErrBudget) {
					t.Fatalf("%s: %v on %v: UNSAT formula gave %d samples, err %v", sm.name, f.Clauses, vars, len(got), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v on %v, n=%d: %v", sm.name, f.Clauses, vars, n, err)
			}
			switch {
			case sm.name == "draw" || path == PathDrawn:
				checkDrawContract(t, sm.name, f, vars, n, len(want), got)
			case path == PathScanned:
				checkSupportSample(t, f, opts, n, got, ref)
			default:
				checkRowSample(t, f, opts, n, got, ref)
			}
			again, err := sm.fn(context.Background(), f, n, opts)
			if err != nil || len(again) != len(got) {
				t.Fatalf("%s: %v, n=%d: second call gave %d samples, err %v; first gave %d", sm.name, f.Clauses, n, len(again), err, len(got))
			}
			for i := range got {
				if !slices.Equal(got[i], again[i]) {
					t.Fatalf("%s: %v, n=%d: sample %d differs between two calls with seed %d", sm.name, f.Clauses, n, i, opts.Seed)
				}
			}
			outs[k] = got
		}
		switch {
		case len(want) == 0:
		case path == PathDrawn:
			checkSameSamples(t, f, n, outs[0], outs[1]) // samplers lists Sample, then draw
		case path == PathScanned && len(want) <= n:
			checkSameAsDrawLoop(t, f, n, outs[0], outs[1])
		}
	}
}

// checkDrawContract holds got, a draw loop's output for n on f projected
// onto vars, to the draw loop's contract: min(n, solutions) samples, each a
// model, pairwise distinct on the projection.
func checkDrawContract(t *testing.T, name string, f *cnf.Formula, vars []cnf.Var, n, solutions int, got []cnf.Assignment) {
	t.Helper()
	if len(got) != min(n, solutions) {
		t.Fatalf("%s: %v on %v, n=%d: %d samples, want %d of %d projected solutions",
			name, f.Clauses, vars, n, len(got), min(n, solutions), solutions)
	}
	seen := map[uint]bool{}
	for i, m := range got {
		if !f.Eval(m) {
			t.Fatalf("%s: %v, n=%d: sample %d is not a model", name, f.Clauses, n, i)
		}
		p := projection(m, vars)
		if seen[p] {
			t.Fatalf("%s: %v on %v, n=%d: sample %d repeats projection %b", name, f.Clauses, vars, n, i, p)
		}
		seen[p] = true
	}
}

// checkSameAsDrawLoop holds Sample's output got on f, which has at most n
// models, all of them distinct on the projection, to the draw loop's
// output drawn under the same options: the same set of models.
func checkSameAsDrawLoop(t *testing.T, f *cnf.Formula, n int, got, drawn []cnf.Assignment) {
	t.Helper()
	byCode := func(a, b cnf.Assignment) int { return cmp.Compare(code(a), code(b)) }
	got, drawn = slices.Clone(got), slices.Clone(drawn)
	slices.SortFunc(got, byCode)
	slices.SortFunc(drawn, byCode)
	if len(got) != len(drawn) {
		t.Fatalf("%v, n=%d: Sample gave %d models, the draw loop %d", f.Clauses, n, len(got), len(drawn))
	}
	for i := range got {
		if !slices.Equal(got[i], drawn[i]) {
			t.Fatalf("%v, n=%d: Sample's model %d is %v, the draw loop's %v", f.Clauses, n, i, got[i], drawn[i])
		}
	}
}

// checkSameSamples holds Sample's output got on f, from a call that ran
// the draw loop, to the draw loop's output drawn under the same options:
// the same samples in the same order.
func checkSameSamples(t *testing.T, f *cnf.Formula, n int, got, drawn []cnf.Assignment) {
	t.Helper()
	if len(got) != len(drawn) {
		t.Fatalf("%v, n=%d: Sample gave %d samples, the draw loop %d", f.Clauses, n, len(got), len(drawn))
	}
	for i := range got {
		if !slices.Equal(got[i], drawn[i]) {
			t.Fatalf("%v, n=%d: Sample's sample %d is %v, the draw loop's %v", f.Clauses, n, i, got[i], drawn[i])
		}
	}
}

// code reads a total assignment as a binary number, variable v at bit v−1:
// the order Sample's exact path returns models in when nothing is fixed,
// defined or existential.
func code(m cnf.Assignment) uint {
	c := uint(0)
	for v := 1; v < len(m); v++ {
		if m[v] == cnf.True {
			c |= 1 << (v - 1)
		}
	}
	return c
}

// supportRef is the exact path's reference, found by brute force: the
// models of f under opts, and how many universal assignments have a
// completion. The support is every projected variable that opts neither
// fixes nor defines; its universal part is what lies outside opts.Exist.
type supportRef struct {
	models map[string]bool
	exist  map[cnf.Var]bool
	univ   []cnf.Var // the support's universal part
	open   int       // universal assignments with a completion
}

// newSupportRef enumerates every assignment of the support, one at a time,
// holds the fixed variables, computes the defined ones in order, and keeps
// the assignments that satisfy f.
func newSupportRef(f *cnf.Formula, opts Options) supportRef {
	r := supportRef{models: map[string]bool{}, exist: map[cnf.Var]bool{}}
	for _, v := range opts.Exist {
		r.exist[v] = true
	}
	derived := map[cnf.Var]bool{}
	for _, l := range opts.Fixed {
		derived[l.Var()] = true
	}
	for _, d := range opts.Defs {
		derived[d.Out] = true
	}
	var support []cnf.Var
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		if slices.Contains(opts.Vars, v) && !derived[v] {
			support = append(support, v)
			if !r.exist[v] {
				r.univ = append(r.univ, v)
			}
		}
	}
	open := map[uint]bool{}
	a := cnf.NewAssignment(f.NumVars)
	for bits := 0; bits < 1<<len(support); bits++ {
		for i, v := range support {
			a.SetBool(v, bits>>i&1 == 1)
		}
		for _, l := range opts.Fixed {
			a.SetBool(l.Var(), l.IsPos())
		}
		for _, d := range opts.Defs {
			a.SetBool(d.Out, gateValue(d, a))
		}
		if f.Eval(a) {
			r.models[fmt.Sprint(a)] = true
			open[projection(a, r.univ)] = true
		}
	}
	r.open = len(open)
	return r
}

// gateValue is d's output on assignment a.
func gateValue(d Def, a cnf.Assignment) bool {
	row := 0
	for j, v := range d.In {
		if a.Get(v) == cnf.True {
			row |= 1 << j
		}
	}
	return d.Table>>row&1 != 0
}

// checkSupportSample holds got, Sample's output for n under opts when its
// exact path applies, to that path's contract, against the brute-force
// reference ref. Every sample is a model, each defined variable equals its
// gate and each fixed variable holds its constant, and the samples are
// pairwise distinct. With at most n models the samples are exactly the
// models. With more, their universal parts are pairwise distinct and
// number min(n, universal assignments with a completion).
func checkSupportSample(t *testing.T, f *cnf.Formula, opts Options, n int, got []cnf.Assignment, ref supportRef) {
	t.Helper()
	seen := map[string]bool{}
	univ := map[uint]bool{}
	for i, m := range got {
		checkSupportModel(t, f, opts, n, i, m, ref)
		key := fmt.Sprint(m)
		if seen[key] {
			t.Fatalf("%v, n=%d: sample %d repeats an earlier one", f.Clauses, n, i)
		}
		seen[key] = true
		univ[projection(m, ref.univ)] = true
	}
	switch {
	case len(ref.models) <= n:
		if len(got) != len(ref.models) {
			t.Fatalf("%v, n=%d: %d samples of %d models, want them all", f.Clauses, n, len(got), len(ref.models))
		}
	case len(univ) != len(got):
		t.Fatalf("%v, n=%d (%d models): %d samples share %d universal parts", f.Clauses, n, len(ref.models), len(got), len(univ))
	case len(got) != min(n, ref.open):
		t.Fatalf("%v, n=%d (%d models): %d samples, want one for each of min(n, %d) universal assignments with a completion",
			f.Clauses, n, len(ref.models), len(got), ref.open)
	}
}

// checkRowSample holds got, the output of a Sample call for n under opts
// that the row path answered, to that path's contract, against the
// brute-force reference ref. Every sample is a model, each defined
// variable equals its gate and each fixed variable holds its constant, the
// universal parts are pairwise distinct, and there are min(n, open rows)
// samples: with every completion of a row in its word, the path takes rows
// until it has n open ones or has taken them all, and by rejection it
// answers only when every row it took was open.
func checkRowSample(t *testing.T, f *cnf.Formula, opts Options, n int, got []cnf.Assignment, ref supportRef) {
	t.Helper()
	univ := map[uint]bool{}
	for i, m := range got {
		checkSupportModel(t, f, opts, n, i, m, ref)
		u := projection(m, ref.univ)
		if univ[u] {
			t.Fatalf("%v, n=%d: sample %d repeats universal part %b", f.Clauses, n, i, u)
		}
		univ[u] = true
	}
	if len(got) != min(n, ref.open) {
		t.Fatalf("%v, n=%d: %d samples, want one for each of min(n, %d) open rows", f.Clauses, n, len(got), ref.open)
	}
}

// checkSupportModel holds sample i, m, of a call for n under opts to what
// both paths on a support keep: m is one of ref's models, so it satisfies
// f, each defined variable equals its gate and each fixed variable holds
// its constant.
func checkSupportModel(t *testing.T, f *cnf.Formula, opts Options, n, i int, m cnf.Assignment, ref supportRef) {
	t.Helper()
	if !f.Eval(m) {
		t.Fatalf("%v, n=%d: sample %d is not a model", f.Clauses, n, i)
	}
	for _, l := range opts.Fixed {
		if m.Get(l.Var()) != cnf.BoolValue(l.IsPos()) {
			t.Fatalf("%v, n=%d: sample %d does not hold fixed literal %d", f.Clauses, n, i, l)
		}
	}
	for _, d := range opts.Defs {
		if (m.Get(d.Out) == cnf.True) != gateValue(d, m) {
			t.Fatalf("%v, n=%d: sample %d sets defined y%d off its gate %+v", f.Clauses, n, i, d.Out, d)
		}
	}
	if !ref.models[fmt.Sprint(m)] {
		t.Fatalf("%v, n=%d: sample %d, %v, is not among the %d brute-force models", f.Clauses, n, i, m, len(ref.models))
	}
}

// TestEnumerateMatchesDrawLoop pins the exact path on random CNFs of 1–16
// variables, all projected, with nothing fixed or defined, and n ∈ {1,
// M−1, M, M+5} for M models. For M ≤ n, Sample returns every model in
// increasing order, and the draw loop returns the same set, so no
// certificate moves. For M > n, Sample returns n distinct models with no
// solver call (checkSupportSample). Formulas of more than 2,048 models are
// skipped: drawing that many models one blocking clause at a time takes
// seconds.
func TestEnumerateMatchesDrawLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	checked, big, enumerated, chosen := 0, 0, 0, 0
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
		opts := Options{Seed: int64(trial), Vars: vars}
		var ref supportRef
		for _, n := range []int{1, m - 1, m, m + 5} {
			if n <= 0 {
				continue
			}
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
			if st.Solves != 0 {
				t.Fatalf("trial %d, n=%d: %d models took %d solves, want the exact path", trial, n, m, st.Solves)
			}
			if m > n {
				chosen++
				if ref.models == nil {
					ref = newSupportRef(f, opts)
				}
				checkSupportSample(t, f, opts, n, got, ref)
				continue
			}
			enumerated++
			if len(got) != m {
				t.Fatalf("trial %d, n=%d: %d samples of %d models", trial, n, len(got), m)
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("trial %d, n=%d: model %d is %v, brute force %v", trial, n, i, got[i], want[i])
				}
			}
			drawn, err := draw(context.Background(), f, n, opts)
			if err != nil {
				t.Fatalf("trial %d, n=%d: draw loop: %v", trial, n, err)
			}
			checkSameAsDrawLoop(t, f, n, got, drawn)
		}
	}
	if checked < 150 || big < 20 || enumerated == 0 || chosen == 0 {
		t.Fatalf("only %d formulas checked (%d of more than 12 variables), %d calls returned every model and %d chose",
			checked, big, enumerated, chosen)
	}
	t.Logf("%d formulas (%d of more than 12 variables): %d calls returned every model, %d chose", checked, big, enumerated, chosen)
}

// TestSupportSampleContract holds the exact path on a support to its
// contract (checkSupportSample) against brute force: random CNFs over up
// to 16 support variables, of which a random subset is existential, plus
// up to four gate definitions of up to three inputs and up to two fixed
// variables, the roles dealt to variable numbers at random, so that a gate
// often reads a gate defined later in declaration order. Some defined and
// fixed variables are left out of the projection, which the path allows.
// Every call makes no solver call, and the same seed gives the same
// samples.
func TestSupportSampleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	laterInput, chosen := 0, 0
	for trial := 0; trial < 200; trial++ {
		ns, ng, nf := 1+rng.Intn(maxEnumVars), rng.Intn(5), rng.Intn(3)
		nv := ns + ng + nf
		perm := rng.Perm(nv)
		at := func(i int) cnf.Var { return cnf.Var(1 + perm[i]) }
		opts := Options{Seed: int64(trial)}
		pool := make([]cnf.Var, 0, nv)
		for i := 0; i < ns; i++ {
			opts.Vars = append(opts.Vars, at(i))
			pool = append(pool, at(i))
			if rng.Intn(3) == 0 {
				opts.Exist = append(opts.Exist, at(i))
			}
		}
		for i := ns + ng; i < nv; i++ {
			opts.Fixed = append(opts.Fixed, cnf.MkLit(at(i), rng.Intn(2) == 0))
			pool = append(pool, at(i))
		}
		for i := ns; i < ns+ng; i++ {
			d := Def{Out: at(i), Table: uint8(rng.Intn(256))}
			for j := rng.Intn(4); j > 0; j-- {
				if v := pool[rng.Intn(len(pool))]; !slices.Contains(d.In, v) {
					d.In = append(d.In, v)
					if v > d.Out && slices.ContainsFunc(opts.Defs, func(e Def) bool { return e.Out == v }) {
						laterInput++ // an earlier gate, declared after this one
					}
				}
			}
			d.Table &= uint8(1<<(1<<len(d.In)) - 1)
			opts.Defs = append(opts.Defs, d)
			pool = append(pool, d.Out)
		}
		for _, l := range opts.Fixed {
			if rng.Intn(2) == 0 {
				opts.Vars = append(opts.Vars, l.Var())
			}
		}
		for _, d := range opts.Defs {
			if rng.Intn(2) == 0 {
				opts.Vars = append(opts.Vars, d.Out)
			}
			if rng.Intn(3) == 0 {
				opts.Exist = append(opts.Exist, d.Out)
			}
		}
		f := cnf.New(nv)
		for c := rng.Intn(2*nv + 3); c > 0; c-- {
			cl := make([]cnf.Lit, 1+rng.Intn(3))
			for i := range cl {
				cl[i] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			f.AddClause(cl...)
		}
		ref := newSupportRef(f, opts)
		m := len(ref.models)
		for _, n := range []int{1, m - 1, m, m + 5, ref.open - 1, ref.open} {
			if n <= 0 {
				continue
			}
			var st Stats
			withStats := opts
			withStats.Stats = &st
			got, err := Sample(context.Background(), f, n, withStats)
			if st.Solves != 0 {
				t.Fatalf("trial %d, n=%d: the exact path made %d solves", trial, n, st.Solves)
			}
			if m == 0 {
				if err == nil || errors.Is(err, ErrBudget) {
					t.Fatalf("trial %d: a formula with no model gave %d samples, err %v", trial, len(got), err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d, n=%d: %v", trial, n, err)
			}
			checkSupportSample(t, f, opts, n, got, ref)
			if m > n {
				chosen++
			}
			again, err := Sample(context.Background(), f, n, opts)
			if err != nil || len(again) != len(got) {
				t.Fatalf("trial %d, n=%d: second call gave %d samples, err %v; first gave %d", trial, n, len(again), err, len(got))
			}
			for i := range got {
				if !slices.Equal(got[i], again[i]) {
					t.Fatalf("trial %d, n=%d: sample %d differs between two calls with seed %d", trial, n, i, opts.Seed)
				}
			}
		}
	}
	if laterInput == 0 || chosen == 0 {
		t.Fatalf("%d gates read a gate defined later in declaration order and %d calls chose among more models than requested; want both", laterInput, chosen)
	}
	t.Logf("%d gate inputs defined later in declaration order, %d calls chose among more models than requested", laterInput, chosen)
}

// TestRowSampleContract holds the row path to its contract against brute
// force, with the scan bound lowered so that it takes every support: random
// CNFs over up to 12 variables, with up to two gate definitions and one
// fixed variable, and up to 8 of the support variables existential, so
// that both ways of completing a row run: every completion in one word
// with at most six, rejection with more. A call the path answers makes no
// solver call and keeps checkRowSample's contract; a call it declines
// returns the draw loop's samples, sample for sample, and the path
// declines every formula without a model under the constants and gates, so
// it never answers that one is unsatisfiable. The same seed gives the same
// samples.
func TestRowSampleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	paths := map[Path]int{}
	inOrder, shuffled := 0, 0
	for trial := 0; trial < 400; trial++ {
		ns, ng, nf := 1+rng.Intn(9), rng.Intn(3), rng.Intn(2)
		nv := ns + ng + nf
		perm := rng.Perm(nv)
		at := func(i int) cnf.Var { return cnf.Var(1 + perm[i]) }
		opts := Options{Seed: int64(trial), scanVars: -1}
		kE := rng.Intn(min(ns, 8) + 1)
		if ns >= 7 && rng.Intn(2) == 0 {
			kE = 7 + rng.Intn(min(ns, 8)-6) // rejection
		}
		pool := make([]cnf.Var, 0, nv)
		for i := 0; i < ns; i++ {
			opts.Vars = append(opts.Vars, at(i))
			pool = append(pool, at(i))
			if i < kE {
				opts.Exist = append(opts.Exist, at(i))
			}
		}
		for i := ns + ng; i < nv; i++ {
			opts.Fixed = append(opts.Fixed, cnf.MkLit(at(i), rng.Intn(2) == 0))
			pool = append(pool, at(i))
		}
		for i := ns; i < ns+ng; i++ {
			d := Def{Out: at(i), Table: uint8(rng.Intn(256))}
			for j := rng.Intn(4); j > 0; j-- {
				if v := pool[rng.Intn(len(pool))]; !slices.Contains(d.In, v) {
					d.In = append(d.In, v)
				}
			}
			d.Table &= uint8(1<<(1<<len(d.In)) - 1)
			opts.Defs = append(opts.Defs, d)
			pool = append(pool, d.Out)
		}
		f := cnf.New(nv)
		for c := rng.Intn(3*nv + 3); c > 0; c-- {
			cl := make([]cnf.Lit, 1+rng.Intn(3))
			for i := range cl {
				cl[i] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			}
			f.AddClause(cl...)
		}
		ref := newSupportRef(f, opts)
		rows := 1 << len(ref.univ)
		for _, n := range []int{1, ref.open - 1, ref.open, rows - 1, rows, rows + 5} {
			if n <= 0 {
				continue
			}
			var st Stats
			withStats := opts
			withStats.Stats = &st
			got, err := Sample(context.Background(), f, n, withStats)
			paths[st.Path]++
			switch {
			case st.Path == PathScanned:
				t.Fatalf("trial %d, n=%d: scanned with the scan bound at -1", trial, n)
			case len(ref.models) == 0 && st.Path != PathDrawn:
				t.Fatalf("trial %d: path %v answered on a support without a model: %d samples, err %v", trial, st.Path, len(got), err)
			case st.Path == PathDrawn:
				drawn, derr := draw(context.Background(), f, n, opts)
				if (err == nil) != (derr == nil) {
					t.Fatalf("trial %d, n=%d: declined call returned err %v, the draw loop %v", trial, n, err, derr)
				}
				checkSameSamples(t, f, n, got, drawn)
			case err != nil:
				t.Fatalf("trial %d, n=%d: %v", trial, n, err)
			default:
				if st.Solves != 0 {
					t.Fatalf("trial %d, n=%d: path %v made %d solves", trial, n, st.Path, st.Solves)
				}
				checkRowSample(t, f, opts, n, got, ref)
				if n >= rows {
					inOrder++
				} else {
					shuffled++
				}
			}
			again, aerr := Sample(context.Background(), f, n, opts)
			if (aerr == nil) != (err == nil) || len(again) != len(got) {
				t.Fatalf("trial %d, n=%d: second call gave %d samples, err %v; first gave %d, err %v", trial, n, len(again), aerr, len(got), err)
			}
			for i := range got {
				if !slices.Equal(got[i], again[i]) {
					t.Fatalf("trial %d, n=%d: sample %d differs between two calls with seed %d", trial, n, i, opts.Seed)
				}
			}
		}
	}
	if paths[PathRows] == 0 || paths[PathRejection] == 0 || paths[PathDrawn] == 0 || inOrder == 0 || shuffled == 0 {
		t.Fatalf("calls by path %v, %d answered taking every row and %d in shuffled order; want every path and both orders", paths, inOrder, shuffled)
	}
	t.Logf("calls by path %v, %d answered taking every row and %d in shuffled order", paths, inOrder, shuffled)
}

// TestRowPathDeclines pins the row path's two ways of declining, with the
// scan bound lowered. Over twelve universals and one existential, a formula
// that opens one row in eight declines after rowProbe rows and draws
// instead, and one that opens every other row is answered with no solver
// call. Over four universals and sixteen existentials, a row whose one
// completion sets every existential true is not found by rejection, so the
// call draws.
func TestRowPathDeclines(t *testing.T) {
	for _, c := range []struct {
		name       string
		univ, exst int
		clauses    [][]cnf.Lit
		want       Path
	}{
		{"one row in eight", 12, 1, [][]cnf.Lit{{1}, {2}, {3}}, PathDrawn},
		{"every other row", 12, 1, [][]cnf.Lit{{1}}, PathRows},
		{"one completion in 2^16", 4, 16, nil, PathDrawn},
	} {
		nv := c.univ + c.exst
		f := cnf.New(nv)
		vars := make([]cnf.Var, nv)
		for i := range vars {
			vars[i] = cnf.Var(i + 1)
		}
		for _, cl := range c.clauses {
			f.AddClause(cl...)
		}
		if c.exst == 16 {
			for _, e := range vars[c.univ:] {
				f.AddClause(1, cnf.PosLit(e))
			}
		}
		var st Stats
		opts := Options{Seed: 1, Vars: vars, Exist: vars[c.univ:], scanVars: -1, Stats: &st}
		got, err := Sample(context.Background(), f, 400, opts)
		if err != nil || len(got) == 0 || st.Path != c.want || (st.Solves == 0) != (c.want != PathDrawn) {
			t.Errorf("%s: %d samples on path %v in %d solves, err %v; want path %v", c.name, len(got), st.Path, st.Solves, err, c.want)
		}
	}
}

// TestRowPathWideSupport runs the row path on supports of 64 variables,
// the most it takes, where brute force cannot follow: 64 free universals,
// 2^64 rows that are all open, and 40 universals with 24 existentials in
// twelve binary clauses, which rejection completes. Each call returns 400
// models with pairwise distinct universal parts and makes no solver call.
func TestRowPathWideSupport(t *testing.T) {
	for _, c := range []struct {
		univ int
		want Path
	}{{64, PathRows}, {40, PathRejection}} {
		f := cnf.New(64)
		vars := make([]cnf.Var, 64)
		for i := range vars {
			vars[i] = cnf.Var(i + 1)
		}
		for v := c.univ + 1; v < 64; v += 2 {
			f.AddClause(cnf.Lit(v), cnf.Lit(v+1))
		}
		var st Stats
		opts := Options{Seed: 3, Vars: vars, Exist: vars[c.univ:], Stats: &st}
		got, err := Sample(context.Background(), f, 400, opts)
		if err != nil || len(got) != 400 || st.Path != c.want || st.Solves != 0 {
			t.Fatalf("%d universals: %d samples on path %v in %d solves, err %v; want 400 on %v in 0",
				c.univ, len(got), st.Path, st.Solves, err, c.want)
		}
		seen := map[uint]bool{}
		for i, m := range got {
			if !f.Eval(m) {
				t.Fatalf("%d universals: sample %d is not a model", c.univ, i)
			}
			u := projection(m, vars[:c.univ])
			if seen[u] {
				t.Fatalf("%d universals: sample %d repeats universal part %x", c.univ, i, u)
			}
			seen[u] = true
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
// the draw loop never switches to blocking. Sample would answer this
// formula on its row path, so the test runs the draw loop alone.
func TestSampleLargeSpaceNeverBlocks(t *testing.T) {
	const nv = 30
	f := cnf.New(nv)
	for v := cnf.Var(1); v <= nv; v++ {
		f.AddClause(cnf.PosLit(v), cnf.NegLit(v))
	}
	var st Stats
	samples, err := draw(context.Background(), f, 400, Options{Seed: 5, Stats: &st})
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
// draw (406–609 draws here) would break the bound. Sample answers
// controller-000-h1 on its exact path and sat2dqbf-004-h5 on its row path,
// rows (exact) with every variable universal and rejection with its
// existentials named, each in a handful of allocations, so the draw loop
// runs on every instance too: on controller-000-h1 its draws repeat until
// it switches to blocking.
func TestSampleAllocatesOnlyModels(t *testing.T) {
	for _, c := range []struct {
		fam   gen.Family
		idx   int
		exist bool
		path  Path // Sample's
	}{
		{gen.FamilyRandom, 2, false, PathDrawn},
		{gen.FamilyController, 0, false, PathScanned},
		{gen.FamilyEquiv, 0, false, PathScanned},
		{gen.FamilySAT2DQBF, 4, false, PathRows},
		{gen.FamilySAT2DQBF, 4, true, PathRejection},
	} {
		in := gen.Generate(c.fam, c.idx, 1).DQBF
		for _, sm := range samplers {
			var st Stats
			opts := Options{
				Seed:  1,
				Vars:  append(append([]cnf.Var(nil), in.Univ...), in.Exist...),
				Stats: &st,
			}
			if c.exist {
				opts.Exist = in.Exist
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
			if sm.name == "Sample" && st.Path != c.path {
				t.Errorf("%s-%d: Sample took path %v, want %v", c.fam, c.idx, st.Path, c.path)
			}
			if allocs > float64(n+128) {
				t.Errorf("%s: %s-%d: %.0f allocations for %d samples in %d draws, want at most %d",
					sm.name, c.fam, c.idx, allocs, n, st.Solves, n+128)
			}
		}
	}
}

// TestSupportSampleUniformOverX checks that the exact path chooses among
// universal assignments, not among models, and each completion uniformly
// (checkUniformOverX).
func TestSupportSampleUniformOverX(t *testing.T) {
	checkUniformOverX(t, 0, 0, PathScanned)
}

// TestRowSampleUniformOverX runs TestSupportSampleUniformOverX's check on
// the row path, with the scan bound lowered: on the same formula, where a
// word holds every completion of a row, and with five more existentials
// that no clause reads, so that rows are completed by rejection.
func TestRowSampleUniformOverX(t *testing.T) {
	checkUniformOverX(t, 0, -1, PathRows)
	checkUniformOverX(t, 5, -1, PathRejection)
}

// checkUniformOverX samples, under scan bound scanVars, a formula over
// x1..x6 and existentials e1, e2 (variables 7 and 8), plus extra further
// existentials no clause reads, and checks that path chose among universal
// assignments, not among models, and each completion uniformly. The rows
// with x1 true allow all four completions of e1, e2 and the rows with x1
// false only e1 = e2 = 0, so four in five models lie on x1-true rows. Over
// 400 seeds of 16 samples each, a choice uniform over X puts about half the
// samples on those rows, every row is chosen, and each of the four
// completions takes about a quarter of them.
func checkUniformOverX(t *testing.T, extra, scanVars int, path Path) {
	t.Helper()
	f := cnf.New(8 + extra)
	f.AddClause(1, -7)
	f.AddClause(1, -8)
	vars := make([]cnf.Var, 8+extra)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	opts := Options{Vars: vars, Exist: vars[6:], scanVars: scanVars}
	const seeds, n = 400, 16
	rows := map[uint]int{}
	onX1, completions := 0, [4]int{}
	for seed := int64(0); seed < seeds; seed++ {
		var st Stats
		opts.Seed, opts.Stats = seed, &st
		got, err := Sample(context.Background(), f, n, opts)
		if err != nil || len(got) != n || st.Path != path {
			t.Fatalf("%v: seed %d: %d samples on path %v, err %v", path, seed, len(got), st.Path, err)
		}
		for _, m := range got {
			rows[projection(m, opts.Vars[:6])]++
			if m.Get(1) == cnf.True {
				onX1++
				completions[projection(m, opts.Vars[6:8])]++
			}
		}
	}
	if share := float64(onX1) / (seeds * n); share < 0.45 || share > 0.55 {
		t.Errorf("%v: %.3f of the samples lie on x1-true rows, want about 0.5 (0.8 would be uniform over models)", path, share)
	}
	if len(rows) != 64 {
		t.Errorf("%v: %d of 64 universal assignments were ever chosen", path, len(rows))
	}
	for c, k := range completions {
		if share := float64(k) / float64(onX1); share < 0.2 || share > 0.3 {
			t.Errorf("%v: completion %02b took %.3f of the x1-true samples, want about 0.25", path, c, share)
		}
	}
}
