package cegar

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

func skolemXor() *dqbf.Instance {
	// ∀x1x2 ∃y . (y ↔ x1⊕x2)
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1, 2})
	in.Matrix.AddClause(-3, 1, 2)
	in.Matrix.AddClause(-3, -1, -2)
	in.Matrix.AddClause(3, -1, 2)
	in.Matrix.AddClause(3, 1, -2)
	return in
}

func TestSkolemXor(t *testing.T) {
	res, err := Solve(context.Background(), skolemXor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := dqbf.VerifyVector(skolemXor(), res.Vector, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("CEGAR vector invalid: %v", vr.Counterexample)
	}
	if res.Stats.Iterations == 0 || res.Stats.Moves == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestRejectsHenkinInstance(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1}) // partial dependency set
	in.Matrix.AddClause(3, 1)
	if _, err := Solve(context.Background(), in, Options{}); !errors.Is(err, ErrNotSkolem) {
		t.Fatalf("want ErrNotSkolem, got %v", err)
	}
}

// TestRejectsRepeatedDependency gives Solve ∀x1 x2 ∃^{x1} y3 . (y3 ↔ x2)
// with y3's dependency written twice. It is a Henkin instance, and no
// function of x1 alone satisfies it, so a Skolem vector reading x2 would
// break H(y3).
func TestRejectsRepeatedDependency(t *testing.T) {
	in, err := dqbf.ParseDQDIMACS(strings.NewReader("p cnf 3 2\na 1 2 0\nd 3 1 1 0\n-3 2 0\n3 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), in, Options{}); !errors.Is(err, ErrNotSkolem) {
		t.Fatalf("want ErrNotSkolem, got %v", err)
	}
}

func TestFalse2QBF(t *testing.T) {
	// ∀x ∃y . x ∧ ¬x-style contradiction: clause (x1) makes it False.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.Matrix.AddClause(1, 2)
	in.Matrix.AddClause(1, -2)
	if _, err := Solve(context.Background(), in, Options{}); !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestConstantWitnessShortcut(t *testing.T) {
	// ϕ = (y): a single constant strategy wins everywhere; one iteration.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.Matrix.AddClause(2, 1)
	in.Matrix.AddClause(2, -1)
	res, err := Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil || !vr.Valid {
		t.Fatal("vector invalid")
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		in := dqbf.NewInstance()
		nX := 1 + rng.Intn(3)
		for i := 1; i <= nX; i++ {
			in.AddUniv(cnf.Var(i))
		}
		nY := 1 + rng.Intn(2)
		allX := append([]cnf.Var(nil), in.Univ...)
		for j := 0; j < nY; j++ {
			in.AddExist(cnf.Var(nX+j+1), allX)
		}
		for c := 0; c < 1+rng.Intn(5); c++ {
			k := 1 + rng.Intn(3)
			cl := make([]cnf.Lit, 0, k)
			for j := 0; j < k; j++ {
				v := cnf.Var(1 + rng.Intn(nX+nY))
				cl = append(cl, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			in.Matrix.AddClause(cl...)
		}
		want, err := dqbf.BruteForceTrue(in, 64)
		if err != nil {
			continue
		}
		res, serr := Solve(context.Background(), in, Options{})
		if want {
			if serr != nil {
				t.Fatalf("trial %d: True rejected: %v", trial, serr)
			}
			vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
			if verr != nil || !vr.Valid {
				t.Fatalf("trial %d: invalid vector", trial)
			}
		} else if !errors.Is(serr, ErrFalse) {
			t.Fatalf("trial %d: False: got %v", trial, serr)
		}
	}
}

func TestIterationCap(t *testing.T) {
	_, err := Solve(context.Background(), skolemXor(), Options{MaxIterations: 1})
	if err == nil {
		t.Skip("solved within one iteration — acceptable")
	}
	if !errors.Is(err, ErrBudget) && !errors.Is(err, ErrFalse) {
		t.Fatalf("unexpected error under cap: %v", err)
	}
}
