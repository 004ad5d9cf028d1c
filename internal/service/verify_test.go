package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// TestVerifyStatsSurviveLRUDrop pins that the verify-pool counters on
// /statz never run backwards. With one warm formula and single-use solvers,
// verifying A twice and then B drops A from the LRU; the solvers A built
// and retired must still be counted, so evictions keep including every
// retirement.
func TestVerifyStatsSurviveLRUDrop(t *testing.T) {
	parse := func(src string) *dqbf.Instance {
		in, err := dqbf.ParseDQDIMACS(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a := parse(tinyDQDIMACS)                                // y2 ↔ x1
	b := parse("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n") // y2 ↔ ¬x1
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
