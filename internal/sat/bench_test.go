package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// propagationChainFormula builds a deterministic formula whose unit
// propagation from x1 assigns all n variables: a binary implication chain
// x_i → x_{i+1} plus ternary clauses (¬x_i ∨ ¬x_{i+1} ∨ x_{i+2}) that force
// watcher traffic through longer clauses.
func propagationChainFormula(n int) *cnf.Formula {
	f := cnf.New(n)
	for i := 1; i < n; i++ {
		f.AddClause(cnf.Lit(-i), cnf.Lit(i+1))
	}
	for i := 1; i+2 <= n; i++ {
		f.AddClause(cnf.Lit(-i), cnf.Lit(-(i + 1)), cnf.Lit(i+2))
	}
	return f
}

// random3SAT builds a random 3-SAT instance at the given clause/var ratio.
func random3SAT(rng *rand.Rand, nVars int, ratio float64) *cnf.Formula {
	f := cnf.New(nVars)
	m := int(float64(nVars) * ratio)
	for i := 0; i < m; i++ {
		var c [3]cnf.Lit
		for j := 0; j < 3; j++ {
			v := cnf.Var(1 + rng.Intn(nVars))
			c[j] = cnf.MkLit(v, rng.Intn(2) == 0)
		}
		f.AddClause(c[:]...)
	}
	return f
}

// BenchmarkPropagate measures the steady-state cost of unit-propagating a
// long implication cascade. The acceptance bar for the arena refactor is
// allocs/op == 0: after warm-up, propagation must not touch the heap.
func BenchmarkPropagate(b *testing.B) {
	const n = 4000
	s := New()
	s.AddFormula(propagationChainFormula(n))
	start := mkLit(1, false)
	// Warm up watch-list capacities and trail so the measured loop is
	// steady-state.
	for i := 0; i < 3; i++ {
		s.newDecisionLevel()
		s.uncheckedEnqueue(start, reasonUndef)
		if s.propagate() != crefUndef {
			b.Fatal("unexpected conflict in propagation chain")
		}
		s.cancelUntil(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.newDecisionLevel()
		s.uncheckedEnqueue(start, reasonUndef)
		if s.propagate() != crefUndef {
			b.Fatal("unexpected conflict in propagation chain")
		}
		s.cancelUntil(0)
	}
}

// BenchmarkSolveRandom3SAT measures end-to-end CDCL search (AddFormula +
// Solve) on near-phase-transition random 3-SAT instances.
func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(12345))
	const nInstances = 8
	formulas := make([]*cnf.Formula, nInstances)
	for i := range formulas {
		formulas[i] = random3SAT(rng, 140, 4.2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		s.AddFormula(formulas[i%nInstances])
		if st := s.Solve(); st == Unknown {
			b.Fatal("unexpected Unknown")
		}
	}
}

// BenchmarkAddFormula measures clause-database construction cost for a large
// formula (arena + watch pre-sizing is the target of this benchmark).
func BenchmarkAddFormula(b *testing.B) {
	rng := rand.New(rand.NewSource(999))
	f := random3SAT(rng, 20000, 4.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		s.AddFormula(f)
	}
}
