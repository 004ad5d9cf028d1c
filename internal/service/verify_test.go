package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

func parseInstance(t *testing.T, src string) *dqbf.Instance {
	t.Helper()
	in, err := dqbf.ParseDQDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestVerifyStatsSurviveLRUDrop pins that the verify-pool counters on
// /statz never run backwards. With one warm formula and single-use solvers,
// verifying A twice and then B drops A from the LRU; the solvers A built
// and retired must still be counted, so evictions keep including every
// retirement.
func TestVerifyStatsSurviveLRUDrop(t *testing.T) {
	a := parseInstance(t, tinyDQDIMACS)                                // y2 ↔ x1
	b := parseInstance(t, "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n") // y2 ↔ ¬x1
	vecA := dqbf.NewFuncVector(nil)
	vecA.Funcs[2] = vecA.B.Var(cnf.Var(1))
	vecB := dqbf.NewFuncVector(nil)
	vecB.Funcs[2] = vecB.B.Not(vecB.B.Var(cnf.Var(1)))

	v := newVerifier(1, 1, 1, DefaultVerifyConflictBudget)
	var prev VerifyStats
	steps := []struct {
		in  *dqbf.Instance
		vec *dqbf.FuncVector
	}{{a, vecA}, {a, vecA}, {b, vecB}}
	for i, step := range steps {
		if err := v.verify(context.Background(), Fingerprint(step.in), step.in, step.vec); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		st := v.stats()
		if st.SolversBuilt < prev.SolversBuilt || st.SolversEvicted < prev.SolversEvicted {
			t.Fatalf("step %d: counters ran backwards: %+v after %+v", i, st, prev)
		}
		prev = st
	}
	want := VerifyStats{WarmFormulas: 1, Hits: 1, Misses: 2, SolversBuilt: 3, SolversEvicted: 3, Retired: 3}
	if prev != want {
		t.Fatalf("verify stats %+v, want %+v", prev, want)
	}
}

// TestVerifyRetiresEachSolverAtMaxUses pins the bound retirement exists
// for: no pooled solver serves more than maxUses verifications, however
// the pool interleaves its solvers. One solver stays checked out while the
// other serves two verifications; three more then run with both solvers
// idle.
func TestVerifyRetiresEachSolverAtMaxUses(t *testing.T) {
	const maxUses = 3
	in := parseInstance(t, tinyDQDIMACS) // y2 ↔ x1
	vec := dqbf.NewFuncVector(nil)
	vec.Funcs[2] = vec.B.Var(cnf.Var(1))
	fp := Fingerprint(in)

	v := newVerifier(1, 2, maxUses, DefaultVerifyConflictBudget)
	// Rebuild the entry's pool with a constructor that records every solver
	// it builds, so retired solvers can be inspected too.
	e := v.entryFor(fp, in)
	base := cnf.New(in.Matrix.NumVars)
	in.Matrix.NegationInto(base)
	var built []*sat.Solver
	e.pool = oracle.NewPool(2, func() *sat.Solver {
		s := sat.New()
		s.AddFormula(base)
		built = append(built, s)
		return s
	})
	verify := func(step string) {
		t.Helper()
		if err := v.verify(context.Background(), fp, in, vec); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	held := e.pool.Get()
	verify("first while held")
	verify("second while held")
	e.pool.Put(held)
	for i := 0; i < 3; i++ {
		verify("after return")
	}
	for _, s := range built {
		if n := s.Stats().Solves; n > maxUses {
			t.Fatalf("a pooled solver served %d verifications, want at most %d", n, maxUses)
		}
	}
	if got := v.stats().Retired; got != 1 {
		t.Fatalf("retired %d solvers after 5 verifications on 2 solvers, want 1", got)
	}
}
