package pedant

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/sat"
)

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

func TestPaperExample(t *testing.T) {
	res, err := Solve(context.Background(), paperExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := dqbf.VerifyVector(paperExample(), res.Vector, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("vector invalid: %v", vr.Counterexample)
	}
	// y3 ↔ (x2 ∨ x3) is uniquely defined by H3 = {x2,x3}. (y2 is not: with
	// x1=1, y1 is free and y2 ↔ y1 ∨ ¬x2 varies with it.)
	if res.Stats.DefinedVars < 1 {
		t.Fatalf("defined vars: %d, want >= 1", res.Stats.DefinedVars)
	}
	if res.Stats.Iterations == 0 || res.Stats.VerifyCalls == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestFalseInstance(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, nil)
	in.Matrix.AddClause(-2, 1)
	in.Matrix.AddClause(2, -1)
	_, err := Solve(context.Background(), in, Options{})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestIncomparableDepsTrueInstance(t *testing.T) {
	// The Manthan3 incompleteness example is solvable by arbiter CEGIS:
	// ϕ = (y1 ↔ y2), H1={x1,x2}, H2={x2,x3}.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddUniv(3)
	in.AddExist(4, []cnf.Var{1, 2})
	in.AddExist(5, []cnf.Var{2, 3})
	in.Matrix.AddClause(-4, 5)
	in.Matrix.AddClause(4, -5)
	res, err := Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil || !vr.Valid {
		t.Fatalf("invalid vector: %v %v", vr, err)
	}
}

// smallInstance draws 1–3 universals and 1–2 existentials with random
// dependency sets under 1–4 clauses of width 1–3.
func smallInstance(rng *rand.Rand) *dqbf.Instance {
	in := dqbf.NewInstance()
	nX := 1 + rng.Intn(3)
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	nY := 1 + rng.Intn(2)
	for j := 0; j < nY; j++ {
		y := cnf.Var(nX + j + 1)
		var deps []cnf.Var
		for i := 1; i <= nX; i++ {
			if rng.Intn(2) == 0 {
				deps = append(deps, cnf.Var(i))
			}
		}
		in.AddExist(y, deps)
	}
	for c := 0; c < 1+rng.Intn(4); c++ {
		k := 1 + rng.Intn(3)
		cl := make([]cnf.Lit, 0, k)
		for j := 0; j < k; j++ {
			v := cnf.Var(1 + rng.Intn(nX+nY))
			cl = append(cl, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		in.Matrix.AddClause(cl...)
	}
	return in
}

// overlapInstance draws 4–6 universals and 2–4 existentials under 6–11
// clauses of width 3–4, each led by an existential literal. Existential j
// reads x_{j+1}, or x_{j+1} and x_{j+2}, so a two-wide dependency set shares
// an input with the next one, and the universals past the last window are
// read by none. Its 60 draws at seed 31 are 23 True and 37 False, and take
// 173 rounds on warm solvers, up to 7 in one run.
func overlapInstance(rng *rand.Rand) *dqbf.Instance {
	in := dqbf.NewInstance()
	nX := 4 + rng.Intn(3)
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	nY := 2 + rng.Intn(3)
	for j := 0; j < nY; j++ {
		deps := []cnf.Var{cnf.Var(j + 1)}
		if rng.Intn(2) == 0 && j+2 <= nX {
			deps = append(deps, cnf.Var(j+2))
		}
		in.AddExist(cnf.Var(nX+j+1), deps)
	}
	nC := 6 + rng.Intn(6)
	for c := 0; c < nC; c++ {
		k := 3 + rng.Intn(2)
		cl := []cnf.Lit{cnf.MkLit(cnf.Var(nX+1+rng.Intn(nY)), rng.Intn(2) == 0)}
		for j := 1; j < k; j++ {
			cl = append(cl, cnf.MkLit(cnf.Var(1+rng.Intn(nX+nY)), rng.Intn(2) == 0))
		}
		in.Matrix.AddClause(cl...)
	}
	return in
}

// bruteForceGenerators are the random-instance streams of
// TestAgainstBruteForce, which TestVerifierMatchesReference also runs. Every
// draw has at most 16 table cells, so dqbf.BruteForceTrue decides it.
var bruteForceGenerators = []struct {
	seed   int64
	trials int
	draw   func(*rand.Rand) *dqbf.Instance
}{
	{seed: 29, trials: 60, draw: smallInstance},
	{seed: 31, trials: 60, draw: overlapInstance},
}

// TestAgainstBruteForce decides random instances with Solve and with
// dqbf.BruteForceTrue, and requires the same answer plus a verified vector
// on every True one.
func TestAgainstBruteForce(t *testing.T) {
	for _, g := range bruteForceGenerators {
		rng := rand.New(rand.NewSource(g.seed))
		for trial := 0; trial < g.trials; trial++ {
			in := g.draw(rng)
			want, err := dqbf.BruteForceTrue(in, 16)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", g.seed, trial, err)
			}
			res, err := Solve(context.Background(), in, Options{})
			if want {
				if err != nil {
					t.Fatalf("seed %d trial %d: True rejected: %v", g.seed, trial, err)
				}
				vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
				if verr != nil || !vr.Valid {
					t.Fatalf("seed %d trial %d: invalid vector", g.seed, trial)
				}
			} else if !errors.Is(err, ErrFalse) {
				t.Fatalf("seed %d trial %d: False: got %v", g.seed, trial, err)
			}
		}
	}
}

// referenceVerify is the check every refinement round ran before
// verification became incremental: ¬ϕ and each function's Tseitin CNF
// loaded into a fresh, unrestricted solver. It reports whether fv is valid.
func referenceVerify(in *dqbf.Instance, fv *dqbf.FuncVector) (bool, error) {
	dst := cnf.New(in.Matrix.NumVars)
	in.Matrix.NegationInto(dst)
	for _, y := range in.Exist {
		out := fv.B.ToCNF(fv.Funcs[y], dst, boolfunc.CNFOptions{})
		dst.AddEquivLit(cnf.PosLit(y), out)
	}
	s := sat.New()
	s.AddFormula(dst)
	switch st := s.Solve(); st {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	default:
		return false, fmt.Errorf("reference verification: %v", st)
	}
}

// TestVerifierMatchesReference runs the refinement loop round by round on
// TestAgainstBruteForce's instances and on the first four tier-1 instances
// of every gen family. Every round the incremental verifier must give
// referenceVerify's verdict on the current tables, and on an invalid vector
// a β at which those tables falsify ϕ by evaluation.
func TestVerifierMatchesReference(t *testing.T) {
	counterexamples := 0
	check := func(name string, in *dqbf.Instance) {
		t.Helper()
		e := newEngine(context.Background(), in, Options{SATConflictBudget: -1})
		e.buildVerifier()
		for round := 1; ; round++ {
			if err := e.solveArbiter(); errors.Is(err, ErrFalse) {
				return
			} else if err != nil {
				t.Fatalf("%s round %d: arbiter: %v", name, round, err)
			}
			fv := e.vector()
			want, err := referenceVerify(in, fv)
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			valid, err := e.verify()
			if err != nil {
				t.Fatalf("%s round %d: verify: %v", name, round, err)
			}
			if valid != want {
				t.Fatalf("%s round %d: verifier says valid=%v, reference %v", name, round, valid, want)
			}
			if valid {
				return
			}
			a := cnf.NewAssignment(in.Matrix.NumVars)
			for _, x := range in.Univ {
				a.Set(x, e.beta.Get(x))
			}
			for _, y := range in.Exist {
				a.SetBool(y, fv.B.Eval(fv.Funcs[y], a))
			}
			if in.Matrix.Eval(a) {
				t.Fatalf("%s round %d: the tables satisfy ϕ at the counterexample", name, round)
			}
			counterexamples++
			if err := e.instantiate(); errors.Is(err, ErrFalse) {
				return
			} else if err != nil {
				t.Fatalf("%s round %d: instantiate: %v", name, round, err)
			}
		}
	}

	for _, g := range bruteForceGenerators {
		rng := rand.New(rand.NewSource(g.seed))
		for trial := 0; trial < g.trials; trial++ {
			check(fmt.Sprintf("seed %d trial %d", g.seed, trial), g.draw(rng))
		}
	}
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for _, index := range []int{0, 5, 10, 15} {
			inst := gen.Generate(fam, index, 1)
			check(inst.Name, inst.DQBF)
		}
	}
	// 2,257 at the time of writing; far fewer means the inputs stopped
	// exercising the loop.
	if counterexamples < 2000 {
		t.Fatalf("checked %d counterexamples, want at least 2,000", counterexamples)
	}
}

// TestUniversalsPastBit63 solves ∀x1…xn ∃y(xn): (¬y ∨ xn)(y ∨ ¬xn) with n
// past 64. β is read from the counterexample assignment itself, so the last
// universal counts; packed into an int, it read 0 and the loop instantiated
// the wrong row until the iteration cap.
func TestUniversalsPastBit63(t *testing.T) {
	for _, n := range []int{65, 70} {
		in := dqbf.NewInstance()
		for i := 1; i <= n; i++ {
			in.AddUniv(cnf.Var(i))
		}
		x, y := cnf.Var(n), cnf.Var(n+1)
		in.AddExist(y, []cnf.Var{x})
		in.Matrix.AddClause(cnf.NegLit(y), cnf.PosLit(x))
		in.Matrix.AddClause(cnf.PosLit(y), cnf.NegLit(x))
		res, err := Solve(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%d universals: %v", n, err)
		}
		if res.Stats.Iterations != 2 {
			t.Fatalf("%d universals: %d rounds, want 2", n, res.Stats.Iterations)
		}
		vr, err := dqbf.VerifyVector(in, res.Vector, -1)
		if err != nil || !vr.Valid {
			t.Fatalf("%d universals: invalid vector: %v", n, err)
		}
	}
}

// controllerTier1 is gen's controller-000-h1 at seed 1: 129 refinement
// rounds, one per assignment of its seven universals plus the final check.
func controllerTier1() *dqbf.Instance { return gen.Generate(gen.FamilyController, 0, 1).DQBF }

// TestSolveDeterministic requires two runs on controller-000-h1 to give the
// same certificate text and the same Stats, phase durations aside.
func TestSolveDeterministic(t *testing.T) {
	in := controllerTier1()
	var certs [2]string
	var stats [2]Stats
	for i := range certs {
		res, err := Solve(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var b strings.Builder
		if err := dqbf.WriteCertificate(&b, res.Vector); err != nil {
			t.Fatal(err)
		}
		certs[i] = b.String()
		for k := range res.Stats.Phases {
			res.Stats.Phases[k].Duration = 0
		}
		stats[i] = res.Stats
	}
	if certs[0] != certs[1] {
		t.Fatal("two runs gave different certificates")
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("two runs gave different stats:\n%+v\n%+v", stats[0], stats[1])
	}
	if stats[0].Iterations != 129 {
		t.Fatalf("%d rounds, want 129", stats[0].Iterations)
	}
}

func TestTooLargeDeps(t *testing.T) {
	// Row indices beyond 30 dependency bits are rejected up front.
	in := dqbf.NewInstance()
	for i := 1; i <= 31; i++ {
		in.AddUniv(cnf.Var(i))
	}
	deps := make([]cnf.Var, 31)
	for i := range deps {
		deps[i] = cnf.Var(i + 1)
	}
	in.AddExist(32, deps)
	in.Matrix.AddClause(32, 1)
	if _, err := Solve(context.Background(), in, Options{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestLazyCellsAllowLargeDepSets(t *testing.T) {
	// A 20-bit dependency set is fine when only a handful of cells are ever
	// touched (the lazy-arbiter property Pedant relies on).
	in := dqbf.NewInstance()
	for i := 1; i <= 20; i++ {
		in.AddUniv(cnf.Var(i))
	}
	deps := make([]cnf.Var, 20)
	for i := range deps {
		deps[i] = cnf.Var(i + 1)
	}
	in.AddExist(21, deps)
	// y must be 1 only when all 20 inputs are 0 — a single relevant cell out
	// of 2^20, so the lazy loop touches O(1) cells.
	cl := make([]cnf.Lit, 0, 21)
	cl = append(cl, cnf.PosLit(21))
	for i := 1; i <= 20; i++ {
		cl = append(cl, cnf.PosLit(cnf.Var(i)))
	}
	in.Matrix.AddClause(cl...)
	res, err := Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ArbiterVars > 8 {
		t.Fatalf("lazy allocation touched %d cells", res.Stats.ArbiterVars)
	}
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil || !vr.Valid {
		t.Fatal("vector invalid")
	}
}

func TestSkipDefinitionCheck(t *testing.T) {
	res, err := Solve(context.Background(), paperExample(), Options{SkipDefinitionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DefinedVars != 0 {
		t.Fatal("definition check ran despite being disabled")
	}
	vr, err := dqbf.VerifyVector(paperExample(), res.Vector, -1)
	if err != nil || !vr.Valid {
		t.Fatal("invalid vector without definition check")
	}
}

func TestIterationCap(t *testing.T) {
	_, err := Solve(context.Background(), paperExample(), Options{MaxIterations: 1})
	if err == nil {
		t.Skip("solved in one iteration — acceptable")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// BenchmarkPedant measures Solve on controller-000-h1 at seed 1: the Padoa
// pass and 129 refinement rounds, each an arbiter solve and a verification
// solve.
func BenchmarkPedant(b *testing.B) {
	in := controllerTier1()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Solve(context.Background(), in, Options{DefineWorkers: 1}); err != nil {
			b.Fatalf("Solve: %v", err)
		}
	}
}
