package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/sampler"
)

// paperExample is Example 1 from the paper (see dqbf tests for the clause
// derivation).
func paperExample() *dqbf.Instance {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddUniv(3)
	in.AddExist(4, []cnf.Var{1})
	in.AddExist(5, []cnf.Var{1, 2})
	in.AddExist(6, []cnf.Var{2, 3})
	in.Matrix.AddClause(1, 4)
	in.Matrix.AddClause(-5, 4, -2)
	in.Matrix.AddClause(5, -4)
	in.Matrix.AddClause(5, 2)
	in.Matrix.AddClause(-6, 2, 3)
	in.Matrix.AddClause(6, -2)
	in.Matrix.AddClause(6, -3)
	return in
}

// synthesizeAndCheck runs the engine and independently verifies the result.
func synthesizeAndCheck(t *testing.T, in *dqbf.Instance, opts Options) *Result {
	t.Helper()
	res, err := Synthesize(context.Background(), in, opts)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil {
		t.Fatalf("independent verification errored: %v", err)
	}
	if !vr.Valid {
		t.Fatalf("synthesized vector invalid; counterexample %v", vr.Counterexample)
	}
	return res
}

func TestPaperExample1(t *testing.T) {
	in := paperExample()
	res := synthesizeAndCheck(t, in, Options{Seed: 1})
	// Functions must respect dependencies (checked by VerifyVector), and the
	// instance-specific shape: f3 must equal x2 ∨ x3 semantically.
	f3 := res.Vector.Funcs[6]
	for mask := 0; mask < 4; mask++ {
		a := cnf.NewAssignment(6)
		a.SetBool(2, mask&1 != 0)
		a.SetBool(3, mask&2 != 0)
		want := mask != 0
		if res.Vector.B.Eval(f3, a) != want {
			t.Fatalf("f3 is not x2∨x3 at mask %d", mask)
		}
	}
}

func TestPaperExampleAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := paperExample()
		synthesizeAndCheck(t, in, Options{Seed: seed})
	}
}

// TestNoSamplingWhenEveryExistentialFixed: Σ serves only the trees of the
// existentials preprocessing leaves open, so when gate definitions fix all
// of them the sample phase draws nothing and makes no oracle call, and the
// vector of fixed functions still passes VerifyVector. The first chain has
// 16 variables, which the sampler would enumerate, the second 31, which it
// would draw from.
func TestNoSamplingWhenEveryExistentialFixed(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		nX, nY int
	}{{3, 6, 2}, {1, 8, 3}} {
		in := plantedChainInstance(c.seed, c.nX, c.nY)
		skipped := false
		res := synthesizeAndCheck(t, in, Options{Seed: 1, Logf: func(format string, args ...any) {
			skipped = skipped || strings.HasPrefix(format, "sample: skipped")
		}})
		if fixed := res.Stats.UnatesDetected + res.Stats.DefinedVars; fixed != len(in.Exist) {
			t.Fatalf("chain %v: preprocessing fixed %d of %d existentials, want all", c, fixed, len(in.Exist))
		}
		var sample *backend.PhaseStat
		for i, p := range res.Stats.Phases {
			if p.Name == backend.PhaseSample {
				sample = &res.Stats.Phases[i]
			}
		}
		if sample == nil || sample.OracleCalls != 0 || res.Stats.Samples != 0 || !skipped {
			t.Fatalf("chain %v: sample phase %+v, %d samples, skip traced %v; want 0 calls, 0 samples, traced",
				c, sample, res.Stats.Samples, skipped)
		}
	}
}

// TestSampleSupportPaths pins which path the sample phase takes. The
// sampler's support is X plus the existentials preprocessing left open,
// and on gen seed 1, indices 0–9 of every family, each such support has at
// most 64 variables, so the phase makes no oracle call. With at most 16 the
// sampler scans the support, whatever ϕ's variable count (random-001-h2
// has 18 variables and a support of 13); with 17–64 it takes rows, and Σ
// keeps the row contract (checkRowSigma). Above 64, Σ is exactly the draw
// loop's: what the sampler draws without the definitions and constants.
func TestSampleSupportPaths(t *testing.T) {
	scanned, rows := 0, 0
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for idx := 0; idx < 10; idx++ {
			named := gen.Generate(fam, idx, 1)
			e := newEngine(context.Background(), named.DQBF, Options{Seed: 1}.withDefaults())
			if err := e.preprocess(); err != nil {
				t.Fatalf("%s: preprocess: %v", named.Name, err)
			}
			if e.allFixed() {
				continue
			}
			support := openSupport(e)
			before := e.oracleCount()
			if err := e.samplePhase(); err != nil {
				t.Fatalf("%s: sample: %v", named.Name, err)
			}
			if calls := e.oracleCount() - before; calls != 0 {
				t.Fatalf("%s: support of %d took %d oracle calls, want none", named.Name, support, calls)
			}
			if support <= 16 {
				scanned++
				continue
			}
			rows++
			checkRowSigma(t, named.Name, e)
		}
	}
	if scanned == 0 || rows == 0 {
		t.Fatalf("%d runs scanned and %d took rows; want both paths", scanned, rows)
	}

	in := idleUnivParityInstance()
	e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
	if err := e.preprocess(); err != nil {
		t.Fatalf("parity: preprocess: %v", err)
	}
	if support := openSupport(e); support <= 64 {
		t.Fatalf("parity: support of %d, want more than 64", support)
	}
	if err := e.samplePhase(); err != nil {
		t.Fatalf("parity: sample: %v", err)
	}
	vars := append(append([]cnf.Var(nil), in.Univ...), in.Exist...)
	samples, err := sampler.Sample(context.Background(), in.Matrix, e.opts.numSamples, sampler.Options{
		Seed: e.opts.Seed, Vars: vars,
	})
	if err != nil {
		t.Fatalf("parity: draw loop: %v", err)
	}
	want := packSamples(vars, samples)
	if e.sigma.n != want.n || !slices.Equal(e.sigma.bits, want.bits) || !slices.Equal(e.sigma.slot, want.slot) {
		t.Fatalf("parity: Σ of %d samples differs from the draw loop's %d", e.sigma.n, want.n)
	}
}

// idleUnivParityInstance is blockParityInstance(4, 4) with 48 more
// universals that ϕ does not read: preprocessing fixes none of the four
// parity outputs, so the sampler's support has 68 variables, more than the
// row path takes.
func idleUnivParityInstance() *dqbf.Instance {
	in := blockParityInstance(4, 4)
	for v := cnf.Var(21); v <= 68; v++ {
		in.AddUniv(v)
	}
	return in
}

// openSupport returns the size of the sampler's support after e's
// preprocessing: X plus the existentials it left open.
func openSupport(e *Engine) int {
	support := len(e.in.Univ)
	for _, y := range e.in.Exist {
		if !e.fixed[y] {
			support++
		}
	}
	return support
}

// checkRowSigma holds e's Σ, sampled on the sampler's row path, to that
// path's contract: the samples' X parts are pairwise distinct, and each
// sample is a model of ϕ that holds the unates' constants and gives every
// gate-defined existential its gate's value. Every X assignment of the gen
// instances it checks has a completion, so Σ has one sample for each of
// min(400, 2^|X|) of them.
func checkRowSigma(t *testing.T, name string, e *Engine) {
	t.Helper()
	in := e.in
	if want := min(e.opts.numSamples, 1<<len(in.Univ)); e.sigma.n != want {
		t.Fatalf("%s: %d samples over %d universals, want %d", name, e.sigma.n, len(in.Univ), want)
	}
	seen := map[uint64]bool{}
	vars := append(slices.Clone(in.Univ), in.Exist...)
	a := cnf.NewAssignment(in.Matrix.NumVars)
	for i := 0; i < e.sigma.n; i++ {
		for _, v := range vars {
			a.SetBool(v, e.sigma.col(v)[i/64]>>(i%64)&1 != 0)
		}
		row := uint64(0)
		for k, x := range in.Univ {
			if a.Get(x) == cnf.True {
				row |= 1 << k
			}
		}
		if seen[row] {
			t.Fatalf("%s: sample %d repeats X assignment %b", name, i, row)
		}
		seen[row] = true
		if !in.Matrix.Eval(a) {
			t.Fatalf("%s: sample %d is not a model of ϕ", name, i)
		}
		for _, l := range e.unates {
			if a.Get(l.Var()) != cnf.BoolValue(l.IsPos()) {
				t.Fatalf("%s: sample %d does not hold unate %d", name, i, l)
			}
		}
		for _, g := range e.gates {
			r := 0
			for j, v := range g.In {
				if a.Get(v) == cnf.True {
					r |= 1 << j
				}
			}
			if (a.Get(g.Out) == cnf.True) != (g.Table>>r&1 != 0) {
				t.Fatalf("%s: sample %d sets y%d off its gate", name, i, g.Out)
			}
		}
	}
}

func TestFalseInstance(t *testing.T) {
	// ∀x1 ∃^{∅}y1 . (x1 ∨ y1) ∧ (x1 ∨ ¬y1) is False: under x1=0 there is no
	// completion, which fires the ϕ ∧ (X ↔ δ[X]) check (Alg. 1 line 14).
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, nil)
	in.Matrix.AddClause(1, 2)
	in.Matrix.AddClause(1, -2)
	_, err := Synthesize(context.Background(), in, Options{Seed: 1})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestFalseBeyondManthanDetection(t *testing.T) {
	// ∀x1 ∃^{∅}y1 . (y1 ↔ x1) is False, but every X assignment has a
	// completion, so Manthan3's False check never fires (paper §5). Gk is
	// satisfiable and blame finds no other candidate, so only the row
	// repair changes y1: it patches y1's single row one way, then the
	// other, and that oscillation stops the run as ErrIncomplete.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, nil)
	in.Matrix.AddClause(-2, 1)
	in.Matrix.AddClause(2, -1)
	e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
	_, err := e.synthesize()
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("want ErrIncomplete, got %v", err)
	}
	if e.stats.RowRepairs != 1 || e.stats.RowOscillations != 1 {
		t.Fatalf("row repairs %d, oscillations %d; want 1 and 1", e.stats.RowRepairs, e.stats.RowOscillations)
	}
}

func TestUnsatMatrixIsFalse(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.Matrix.AddClause(2)
	in.Matrix.AddClause(-2)
	_, err := Synthesize(context.Background(), in, Options{Seed: 1})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestIncompletenessExample(t *testing.T) {
	// The paper's §5 limitation: ϕ = (y1 ↔ y2), H1={x1,x2}, H2={x2,x3}.
	// True (f1=f2=x2 works) but Manthan3 may fail to repair. Accept either a
	// valid vector or ErrIncomplete — never a wrong vector or ErrFalse.
	for seed := int64(0); seed < 6; seed++ {
		in := dqbf.NewInstance()
		in.AddUniv(1)
		in.AddUniv(2)
		in.AddUniv(3)
		in.AddExist(4, []cnf.Var{1, 2})
		in.AddExist(5, []cnf.Var{2, 3})
		in.Matrix.AddClause(-4, 5)
		in.Matrix.AddClause(4, -5)
		res, err := Synthesize(context.Background(), in, Options{Seed: seed})
		if err != nil {
			if !errors.Is(err, ErrIncomplete) && !errors.Is(err, ErrBudget) {
				t.Fatalf("seed %d: unexpected error %v", seed, err)
			}
			continue
		}
		vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
		if verr != nil || !vr.Valid {
			t.Fatalf("seed %d: engine returned invalid vector", seed)
		}
	}
}

func TestNoExistentialsTautology(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.Matrix.AddClause(1, -1)
	res, err := Synthesize(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vector.Funcs) != 0 {
		t.Fatal("unexpected functions")
	}
}

func TestNoExistentialsNonTautology(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.Matrix.AddClause(1)
	_, err := Synthesize(context.Background(), in, Options{})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestConstantDetection(t *testing.T) {
	// ϕ forces y=1 always: ϕ = (y ∨ x) ∧ (y ∨ ¬x).
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.Matrix.AddClause(2, 1)
	in.Matrix.AddClause(2, -1)
	res := synthesizeAndCheck(t, in, Options{Seed: 1})
	// y never occurs negated, so the syntactic unate fast path fixes it.
	if res.Stats.UnatesDetected != 1 {
		t.Fatalf("preprocessing hits: %+v, want exactly 1", res.Stats)
	}
	if res.Vector.Funcs[2] != res.Vector.B.True() {
		t.Fatalf("f should be constant true, got %s", res.Vector.B.String(res.Vector.Funcs[2]))
	}
}

func TestSemanticConstantDetection(t *testing.T) {
	// y occurs in both polarities (so the syntactic fast path stays quiet),
	// yet ϕ forces y=1: ϕ = (y∨x) ∧ (y∨¬x) ∧ (¬y∨y-tautology-breaker).
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.AddExist(3, []cnf.Var{1})
	in.Matrix.AddClause(2, 1)
	in.Matrix.AddClause(2, -1)
	in.Matrix.AddClause(-2, 3) // ¬y occurrence; forces y3 once y2=1
	res := synthesizeAndCheck(t, in, Options{Seed: 1})
	// y3 never occurs negated, so the syntactic pass fixes it; only the
	// semantic unate check fixes y2.
	if res.Stats.UnatesDetected < 2 {
		t.Fatalf("semantic unate path not exercised: %+v", res.Stats)
	}
	if res.Vector.Funcs[2] != res.Vector.B.True() {
		t.Fatalf("f2 should be constant true")
	}
}

func TestUnateDetection(t *testing.T) {
	// ϕ = (y ∨ x): y is positive unate (setting y=1 always safe).
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.Matrix.AddClause(2, 1)
	res := synthesizeAndCheck(t, in, Options{Seed: 1})
	if res.Stats.UnatesDetected < 1 {
		t.Fatalf("no preprocessing hit: %+v", res.Stats)
	}
}

func TestUniquelyDefinedConjunction(t *testing.T) {
	// y ↔ (x1 ∧ x2) with H = {x1,x2}: y is uniquely defined, and learn+repair
	// must find its definition.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1, 2})
	in.Matrix.AddClause(-3, 1)
	in.Matrix.AddClause(-3, 2)
	in.Matrix.AddClause(3, -1, -2)
	res := synthesizeAndCheck(t, in, Options{Seed: 1})
	// The function must be x1 ∧ x2 semantically.
	f := res.Vector.Funcs[3]
	for mask := 0; mask < 4; mask++ {
		a := cnf.NewAssignment(3)
		a.SetBool(1, mask&1 != 0)
		a.SetBool(2, mask&2 != 0)
		if res.Vector.B.Eval(f, a) != (mask == 3) {
			t.Fatalf("f ≠ x1∧x2 at mask %d", mask)
		}
	}
}

func TestSkolemSpecialCase(t *testing.T) {
	// Ordinary 2-QBF: ∀x1x2 ∃y. (y ↔ x1⊕x2) with full dependencies.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1, 2})
	// y ↔ x1⊕x2
	in.Matrix.AddClause(-3, 1, 2)
	in.Matrix.AddClause(-3, -1, -2)
	in.Matrix.AddClause(3, -1, 2)
	in.Matrix.AddClause(3, 1, -2)
	res := synthesizeAndCheck(t, in, Options{Seed: 2})
	f := res.Vector.Funcs[3]
	for mask := 0; mask < 4; mask++ {
		a := cnf.NewAssignment(3)
		a.SetBool(1, mask&1 != 0)
		a.SetBool(2, mask&2 != 0)
		if res.Vector.B.Eval(f, a) != ((mask&1 != 0) != (mask&2 != 0)) {
			t.Fatalf("f ≠ xor at mask %d", mask)
		}
	}
}

func TestChainedDependencies(t *testing.T) {
	// y1 over {x1}, y2 over {x1,x2} with ϕ forcing y2 ↔ (y1 ⊕ x2) and
	// y1 ↔ ¬x1 — exercises Y-as-feature learning and ordering.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1})
	in.AddExist(4, []cnf.Var{1, 2})
	// y1 ↔ ¬x1
	in.Matrix.AddClause(-3, -1)
	in.Matrix.AddClause(3, 1)
	// y2 ↔ (y1 ⊕ x2)
	in.Matrix.AddClause(-4, 3, 2)
	in.Matrix.AddClause(-4, -3, -2)
	in.Matrix.AddClause(4, -3, 2)
	in.Matrix.AddClause(4, 3, -2)
	synthesizeAndCheck(t, in, Options{Seed: 3})
}

func TestDeadlineAborts(t *testing.T) {
	in := paperExample()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Synthesize(ctx, in, Options{Seed: 1})
	if err == nil {
		t.Skip("engine finished before the deadline check — acceptable")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expired ctx deadline: got %v, want ErrBudget", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx error missing from the chain: %v", err)
	}
}

func TestRandomPlantedInstances(t *testing.T) {
	// Generate True instances by planting functions: pick random fi over Hi,
	// and let ϕ assert Y ↔ f(X) via CNF encoding of each function. The
	// engine must synthesize some valid vector.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		in := dqbf.NewInstance()
		nX := 2 + rng.Intn(3)
		for i := 1; i <= nX; i++ {
			in.AddUniv(cnf.Var(i))
		}
		nY := 1 + rng.Intn(3)
		b := boolfunc.NewBuilder()
		planted := make(map[cnf.Var]boolfunc.Node)
		for j := 0; j < nY; j++ {
			y := cnf.Var(nX + j + 1)
			var deps []cnf.Var
			for i := 1; i <= nX; i++ {
				if rng.Intn(2) == 0 {
					deps = append(deps, cnf.Var(i))
				}
			}
			in.AddExist(y, deps)
			f := b.Const(rng.Intn(2) == 0)
			for _, d := range deps {
				switch rng.Intn(3) {
				case 0:
					f = b.And(f, b.Var(d))
				case 1:
					f = b.Or(f, b.Var(d))
				default:
					f = b.Xor(f, b.Var(d))
				}
			}
			planted[y] = f
		}
		// ϕ := ⋀ (y ↔ f(X)) — encode on the instance's variable space.
		for y, f := range planted {
			out := b.ToCNF(f, in.Matrix, boolfunc.CNFOptions{})
			in.Matrix.AddEquivLit(cnf.PosLit(y), out)
		}
		// Tseitin aux variables become extra existentials depending on all X
		// plus... simpler: declare them existential with full dependencies.
		declared := make(map[cnf.Var]bool)
		for _, v := range in.Univ {
			declared[v] = true
		}
		for _, v := range in.Exist {
			declared[v] = true
		}
		allX := append([]cnf.Var(nil), in.Univ...)
		for _, c := range in.Matrix.Clauses {
			for _, l := range c {
				if !declared[l.Var()] {
					declared[l.Var()] = true
					in.AddExist(l.Var(), allX)
				}
			}
		}
		res, err := Synthesize(context.Background(), in, Options{Seed: int64(trial)})
		if err != nil {
			if errors.Is(err, ErrIncomplete) || errors.Is(err, ErrBudget) {
				continue // incompleteness is permitted, unsoundness is not
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
		if verr != nil || !vr.Valid {
			t.Fatalf("trial %d: invalid vector returned", trial)
		}
	}
}

func TestEqualDepChainsNoCycles(t *testing.T) {
	// Regression test: many existentials with identical (full) dependency
	// sets form long reference chains through Y-as-feature learning; the
	// d-set bookkeeping must stay transitively closed or substitution ends
	// with functions still referencing Y variables (cyclic orders).
	// A 2-bit adder with Tseitin auxiliaries reproduces the original bug.
	in := dqbf.NewInstance()
	for i := 1; i <= 4; i++ {
		in.AddUniv(cnf.Var(i))
	}
	allX := []cnf.Var{1, 2, 3, 4}
	for i := 5; i <= 7; i++ {
		in.AddExist(cnf.Var(i), allX)
	}
	b := boolfunc.NewBuilder()
	a1, a0, b1, b0 := b.Var(1), b.Var(2), b.Var(3), b.Var(4)
	s0 := b.Xor(a0, b0)
	c0 := b.And(a0, b0)
	s1 := b.Xor(b.Xor(a1, b1), c0)
	c1 := b.Or(b.And(a1, b1), b.And(b.Xor(a1, b1), c0))
	spec := b.AndN([]boolfunc.Node{
		b.Not(b.Xor(b.Var(7), s0)),
		b.Not(b.Xor(b.Var(6), s1)),
		b.Not(b.Xor(b.Var(5), c1)),
	})
	out := b.ToCNF(spec, in.Matrix, boolfunc.CNFOptions{})
	in.Matrix.AddUnit(out)
	declared := map[cnf.Var]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true}
	for _, c := range in.Matrix.Clauses {
		for _, l := range c {
			if !declared[l.Var()] {
				declared[l.Var()] = true
				in.AddExist(l.Var(), allX)
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		res, err := Synthesize(context.Background(), in, Options{Seed: seed})
		if err != nil {
			if errors.Is(err, ErrIncomplete) || errors.Is(err, ErrBudget) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
		if verr != nil || !vr.Valid {
			t.Fatalf("seed %d: invalid vector (%v)", seed, verr)
		}
	}
}

func TestLogfTracing(t *testing.T) {
	in := paperExample()
	var lines int
	_, err := Synthesize(context.Background(), in, Options{
		Seed: 1,
		Logf: func(format string, args ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no trace lines emitted")
	}
}

func TestStatsPopulated(t *testing.T) {
	in := paperExample()
	res := synthesizeAndCheck(t, in, Options{Seed: 1})
	if res.Stats.Samples == 0 {
		t.Fatal("no samples recorded")
	}
	if res.Stats.VerifyCalls == 0 {
		t.Fatal("no verify calls recorded")
	}
}

// TestVerifyCounterexamplesGenuine runs generator instances through
// verify–repair and checks every counterexample δ the verification oracle
// returns: each δ[Y′y] must equal the candidate fy evaluated at δ, and ϕ
// must be false at δ. The oracle's search branches on X alone, so this pins
// that its models stay genuine. The instances are the controller ones of
// tiers 3–5 among indices 0–39 (gen seed 1), whose observed state bits give
// the row repair the most rows; at 200 rounds they answer, and every vector
// they return must pass VerifyVector.
func TestVerifyCounterexamplesGenuine(t *testing.T) {
	cexs := 0
	for idx := 0; idx < 40; idx++ {
		if idx%5 < 2 {
			continue // tiers 1 and 2
		}
		inst := gen.Generate(gen.FamilyController, idx, 1)
		e := newEngine(context.Background(), inst.DQBF, Options{Seed: 1, MaxRepairIterations: 200}.withDefaults())
		e.testOnCounterexample = func(delta cnf.Assignment) {
			cexs++
			for _, y := range e.in.Exist {
				if got, want := delta.Get(y) == cnf.True, e.b.Eval(e.funcs[y], delta); got != want {
					t.Fatalf("%s: δ[Y′%d] = %v, but its candidate gives %v", inst.Name, y, got, want)
				}
			}
			if e.in.Matrix.Eval(delta) {
				t.Fatalf("%s: ϕ holds at counterexample %d", inst.Name, cexs)
			}
		}
		res, err := e.synthesize()
		if err != nil {
			if !errors.Is(err, ErrIncomplete) && !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: %v", inst.Name, err)
			}
			continue
		}
		if vr, verr := dqbf.VerifyVector(inst.DQBF, res.Vector, -1); verr != nil || !vr.Valid {
			t.Fatalf("%s: returned vector fails verification (%v)", inst.Name, verr)
		}
	}
	if cexs < 100 {
		t.Fatalf("%d counterexamples checked, want at least 100", cexs)
	}
	t.Logf("%d counterexamples checked", cexs)
}

// TestProblemLineDoesNotSizeTables: the DQDIMACS problem line only bounds
// the variables a file may use. Every solver sizes its per-variable tables
// by NumVars, so an instance that declares ten million variables and uses
// two must parse to NumVars 2 and synthesize in well under 1 MB.
func TestProblemLineDoesNotSizeTables(t *testing.T) {
	in, err := dqbf.ParseDQDIMACS(strings.NewReader("p cnf 10000000 1\na 1 0\nd 2 1 0\n1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if in.Matrix.NumVars != 2 {
		t.Fatalf("NumVars = %d, want 2", in.Matrix.NumVars)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Synthesize(context.Background(), in, Options{Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("synthesis allocated %d bytes, want < 1 MB", n)
	}
}

// TestSamplerBudgetIsBudget: a satisfiable ϕ whose sampling draws all run
// out of the sampler's per-draw conflict budget ends the run as ErrBudget,
// which the backend classifies as budget (and retry(k): retries), not as an
// unclassified error.
func TestSamplerBudgetIsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the run takes about 3 s and 10x that under the race detector")
	}
	if testing.Short() {
		t.Skip("multi-second sampling run is not short")
	}
	// ∀x1…x264 ∃y265, over 1,092 random 3-clauses on x1…x260 plus
	// (y ∨ x261 ∨ x262) ∧ (¬y ∨ x263 ∨ x264). The random clauses leave
	// ϕ satisfiable, at the ratio where a draw's random decisions and
	// phases run out of conflicts, and y, in both polarities with four
	// inputs, is neither unate nor gate-defined, so the run samples.
	// Its support of 265 variables is past the row path, so it draws.
	const nx = 260
	in := dqbf.NewInstance()
	for v := cnf.Var(1); v <= nx+4; v++ {
		in.AddUniv(v)
	}
	y := cnf.Var(nx + 5)
	in.AddExist(y, in.Univ[nx:])
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < nx*42/10; c++ {
		var lits [3]cnf.Lit
		for k := range lits {
			lits[k] = cnf.MkLit(cnf.Var(1+rng.Intn(nx)), rng.Intn(2) != 0)
		}
		in.Matrix.AddClause(lits[:]...)
	}
	in.Matrix.AddClause(cnf.PosLit(y), nx+1, nx+2)
	in.Matrix.AddClause(cnf.NegLit(y), nx+3, nx+4)
	_, err := Synthesize(context.Background(), in, Options{Seed: 1})
	if !errors.Is(err, ErrBudget) || !strings.Contains(err.Error(), "sampling") {
		t.Fatalf("got %v, want ErrBudget from sampling", err)
	}
	if got := backend.Classify(backendErr(err)); got != backend.OutcomeBudget {
		t.Fatalf("backend classifies %v as %q, want %q", err, got, backend.OutcomeBudget)
	}
}

// TestSamplingFaultIsInternal: a sampling error other than cancellation or
// the draws' budget is ErrInternal, which the backend classifies as
// internal. The only such error is an unsatisfiable ϕ, which a run's
// initial check rules out, so the test calls drawSamples directly on an
// engine over one.
func TestSamplingFaultIsInternal(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.Matrix.AddClause(2)
	in.Matrix.AddClause(-2)
	e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
	_, err := e.drawSamples([]cnf.Var{1, 2})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("got %v, want ErrInternal", err)
	}
	if got := backend.Classify(backendErr(err)); got != backend.OutcomeInternal {
		t.Fatalf("backend classifies %v as %q, want %q", err, got, backend.OutcomeInternal)
	}
}
