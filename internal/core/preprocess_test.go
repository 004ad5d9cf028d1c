package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/sat"
)

// referenceConstants is the constant check the preprocess phase ran before
// its unate checks: on a fresh ϕ-solver, ϕ ∧ y UNSAT gives y the constant 0,
// and otherwise ϕ ∧ ¬y UNSAT gives it 1. It returns the constants by
// existential.
func referenceConstants(t *testing.T, in *dqbf.Instance) map[cnf.Var]bool {
	t.Helper()
	s := sat.New()
	s.AddFormula(in.Matrix)
	unsat := func(l cnf.Lit) bool {
		st := s.SolveAssume([]cnf.Lit{l})
		if st == sat.Unknown {
			t.Fatalf("reference constant check %v: unknown", l)
		}
		return st == sat.Unsat
	}
	consts := make(map[cnf.Var]bool)
	for _, y := range in.Exist {
		switch {
		case unsat(cnf.PosLit(y)):
			consts[y] = false
		case unsat(cnf.NegLit(y)):
			consts[y] = true
		}
	}
	return consts
}

// satisfiable reports whether ϕ has a model.
func satisfiable(in *dqbf.Instance) bool {
	s := sat.New()
	s.AddFormula(in.Matrix)
	return s.Solve() == sat.Sat
}

// TestUnateChecksCoverConstants runs the preprocess phase as fixedFunctions
// does, on random instances with satisfiable ϕ and on gen's tier-1 and
// tier-2 instances of every family at seed 1. Every existential
// referenceConstants fixes must come out fixed to the same constant, for one
// and for two workers: a constant of a satisfiable ϕ is unate, so the
// unate checks alone find it.
func TestUnateChecksCoverConstants(t *testing.T) {
	type named struct {
		name string
		in   *dqbf.Instance
	}
	var instances []named
	for _, g := range []struct {
		seed int64
		draw func(*rand.Rand) *dqbf.Instance
	}{
		{seed: 41, draw: randomGateInstance},
		{seed: 43, draw: smallRandomInstance},
	} {
		rng := rand.New(rand.NewSource(g.seed))
		for i := 0; i < 150; {
			if in := g.draw(rng); satisfiable(in) {
				instances = append(instances, named{fmt.Sprintf("seed %d draw %d", g.seed, i), in})
				i++
			}
		}
	}
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for index := 0; index < 20; index++ {
			if inst := gen.Generate(fam, index, 1); inst.Hardness <= 2 && satisfiable(inst.DQBF) {
				instances = append(instances, named{inst.Name, inst.DQBF})
			}
		}
	}

	constants := 0
	for _, c := range instances {
		want := referenceConstants(t, c.in)
		constants += len(want)
		for _, workers := range []int{1, 2} {
			e := newEngine(context.Background(), c.in, Options{Seed: 1, PreprocWorkers: workers}.withDefaults())
			if err := e.preprocess(); err != nil {
				t.Fatalf("%s, %d workers: preprocess: %v", c.name, workers, err)
			}
			for _, y := range c.in.Exist {
				v, ok := want[y]
				switch {
				case !ok:
				case !e.fixed[y]:
					t.Fatalf("%s, %d workers: ϕ fixes y%d to %v, preprocess leaves it free", c.name, workers, y, v)
				case e.funcs[y] != e.b.Const(v):
					t.Fatalf("%s, %d workers: ϕ fixes y%d to %v, preprocess to %s",
						c.name, workers, y, v, e.b.String(e.funcs[y]))
				}
			}
		}
	}
	// 247 constants at the time of writing; far fewer means the inputs
	// stopped exercising the check.
	if constants < 200 {
		t.Fatalf("%d constants over %d instances, want at least 200", constants, len(instances))
	}
}
