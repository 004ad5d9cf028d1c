package expand

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
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
	in := paperExample()
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("expansion vector invalid: %v", vr.Counterexample)
	}
	if res.Stats.Rows != 8 {
		t.Fatalf("rows: %d, want 8", res.Stats.Rows)
	}
	if res.Stats.TableCells != 2+4+4 {
		t.Fatalf("cells: %d, want 10", res.Stats.TableCells)
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

func TestEmptyClauseUnderExpansion(t *testing.T) {
	// Clause of only universal literals falsified by some β → False.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1})
	in.Matrix.AddClause(1, 2)
	in.Matrix.AddClause(3, -3) // keep y used
	_, err := Solve(context.Background(), in, Options{})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestTooLargeGuards(t *testing.T) {
	in := dqbf.NewInstance()
	for i := 1; i <= 5; i++ {
		in.AddUniv(cnf.Var(i))
	}
	in.AddExist(6, []cnf.Var{1, 2, 3, 4, 5})
	in.Matrix.AddClause(6, 1)
	if _, err := Solve(context.Background(), in, Options{MaxUnivVars: 3}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("univ cap: %v", err)
	}
	if _, err := Solve(context.Background(), in, Options{MaxTableCells: 8}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("cell cap: %v", err)
	}
}

// randomInstance draws a small random DQBF: 1..maxX universals, 1..maxY
// existentials with random dependency sets, and random 1–3-literal clauses.
// The clause loop re-draws its bound on every iteration, so a seed's
// instance sequence depends on that exact call order.
func randomInstance(rng *rand.Rand, maxX, maxY, minClauses, clauseSpread int) *dqbf.Instance {
	in := dqbf.NewInstance()
	nX := 1 + rng.Intn(maxX)
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	nY := 1 + rng.Intn(maxY)
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
	for c := 0; c < minClauses+rng.Intn(clauseSpread); c++ {
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

// TestAgainstBruteForce decides random instances with Solve and with
// dqbf.BruteForceTrue, which shares no code with any engine, and requires
// the same answer plus a verified vector on every True one. The second
// generator draws wider instances (up to 4 universals and 3 existentials).
func TestAgainstBruteForce(t *testing.T) {
	for _, g := range []struct {
		seed                     int64
		trials, maxX, maxY       int
		minClauses, clauseSpread int
		maxCells, minDecided     int
	}{
		{seed: 23, trials: 60, maxX: 3, maxY: 2, minClauses: 1, clauseSpread: 4, maxCells: 64, minDecided: 20},
		{seed: 37, trials: 40, maxX: 4, maxY: 3, minClauses: 2, clauseSpread: 5, maxCells: 24, minDecided: 30},
	} {
		rng := rand.New(rand.NewSource(g.seed))
		decided := 0
		for trial := 0; trial < g.trials; trial++ {
			in := randomInstance(rng, g.maxX, g.maxY, g.minClauses, g.clauseSpread)
			want, err := dqbf.BruteForceTrue(in, g.maxCells)
			if err != nil {
				continue
			}
			decided++
			res, err := Solve(context.Background(), in, Options{})
			if want {
				if err != nil {
					t.Fatalf("seed %d trial %d: True instance rejected: %v", g.seed, trial, err)
				}
				vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
				if verr != nil || !vr.Valid {
					t.Fatalf("seed %d trial %d: invalid vector", g.seed, trial)
				}
			} else if !errors.Is(err, ErrFalse) {
				t.Fatalf("seed %d trial %d: False instance: got %v", g.seed, trial, err)
			}
		}
		if decided < g.minDecided {
			t.Fatalf("seed %d: brute force decided %d of %d trials, want at least %d", g.seed, decided, g.trials, g.minDecided)
		}
	}
}

func TestVectorRespectsDependencies(t *testing.T) {
	res, err := Solve(context.Background(), paperExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := paperExample()
	if viol := res.Vector.DependencyViolations(in); len(viol) != 0 {
		t.Fatalf("dependency violations: %v", viol)
	}
	// f for y1 (var 4) must only mention x1.
	sup := res.Vector.B.Support(res.Vector.Funcs[4])
	for _, v := range sup {
		if v != 1 {
			t.Fatalf("f1 support: %v", sup)
		}
	}
}

func TestNoUniversals(t *testing.T) {
	// Pure SAT: ∃y. y — one row, one cell.
	in := dqbf.NewInstance()
	in.AddExist(1, nil)
	in.Matrix.AddClause(1)
	res, err := Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vector.Funcs[1].Valid() || !res.Vector.B.Eval(res.Vector.Funcs[1], cnf.NewAssignment(1)) {
		t.Fatal("constant-true function expected")
	}
}
