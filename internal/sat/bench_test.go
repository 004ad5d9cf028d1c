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

// verifyShaped builds a database shaped like Manthan3's verification solver
// (core's buildVerifySolver): nIn inputs x1..x_nIn define nGates AND and XOR
// gates in Tseitin form, and a miter over nOut candidate outputs y′j says
// that some y′j differs from its target gate. It returns the formula, the
// inputs, the y′ variables and the gate outputs.
func verifyShaped(rng *rand.Rand, nIn, nGates, nOut int) (f *cnf.Formula, ins, outs []cnf.Var, gates []cnf.Lit) {
	f = cnf.New(nIn)
	sig := make([]cnf.Lit, 0, nIn+nGates)
	for v := 1; v <= nIn; v++ {
		ins = append(ins, cnf.Var(v))
		sig = append(sig, cnf.PosLit(cnf.Var(v)))
	}
	pick := func() cnf.Lit {
		l := sig[rng.Intn(len(sig))]
		if rng.Intn(2) == 0 {
			return l.Neg()
		}
		return l
	}
	for i := 0; i < nGates; i++ {
		z := cnf.PosLit(f.NewVar())
		if rng.Intn(2) == 0 {
			f.AddAnd(z, pick(), pick())
		} else {
			f.AddXor(z, pick(), pick())
		}
		sig = append(sig, z)
		gates = append(gates, z)
	}
	diff := make([]cnf.Lit, nOut)
	for j := range diff {
		y := f.NewVar()
		outs = append(outs, y)
		diff[j] = cnf.PosLit(f.NewVar())
		f.AddXor(diff[j], cnf.PosLit(y), gates[len(gates)-1-rng.Intn(len(gates)/2)])
	}
	f.AddClause(diff...)
	return f, ins, outs, gates
}

// BenchmarkGroupRelease times the incremental pattern of Manthan3's
// verify–repair loop on a database of about 7,000 problem clauses.
//
// release-solve is one repair round of core's verify: release the clause
// group of one candidate output, add its two-clause replacement y′ ↔ g as a
// new group, and solve with branching restricted to the inputs. The release
// fixes an activation variable at level 0, so every Solve starts with a
// top-level simplification pass. Each round allocates an activation
// variable, so the solver is rebuilt, untimed, every 1,024 rounds.
//
// small-batch is one candidate's re-encoding: a three-clause AddClauses
// batch defining a fresh AND gate, on a solver of 20,000 variables. The
// solver is rebuilt, untimed, every 4,096 batches so that it stays that size.
func BenchmarkGroupRelease(b *testing.B) {
	b.Run("release-solve", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		f, ins, outs, gates := verifyShaped(rng, 14, 2000, 8)
		grp := []cnf.Clause{make(cnf.Clause, 2), make(cnf.Clause, 2)}
		equiv := func(y cnf.Var, g cnf.Lit) []cnf.Clause {
			grp[0][0], grp[0][1] = cnf.NegLit(y), g
			grp[1][0], grp[1][1] = cnf.PosLit(y), g.Neg()
			return grp
		}
		// The candidates of the timed rounds, drawn up front.
		picks := make([]cnf.Lit, 1024)
		for i := range picks {
			picks[i] = gates[rng.Intn(len(gates))]
		}
		var s *Solver
		groups := make([]GroupID, len(outs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(picks) == 0 {
				b.StopTimer()
				s = New()
				s.AddFormula(f)
				s.RestrictBranching(ins)
				for j, y := range outs {
					groups[j] = s.AddClauseGroup(equiv(y, gates[j]))
				}
				b.StartTimer()
			}
			j := i % len(outs)
			s.ReleaseGroup(groups[j])
			groups[j] = s.AddClauseGroup(equiv(outs[j], picks[i%len(picks)]))
			if s.Solve() == Unknown {
				b.Fatal("unexpected Unknown")
			}
		}
	})
	b.Run("small-batch", func(b *testing.B) {
		const nv = 20000
		rng := rand.New(rand.NewSource(5))
		var s *Solver
		batch := []cnf.Clause{make(cnf.Clause, 2), make(cnf.Clause, 2), make(cnf.Clause, 3)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%4096 == 0 {
				b.StopTimer()
				s = New()
				s.EnsureVars(nv)
				b.StartTimer()
			}
			z := cnf.PosLit(s.NewVar())
			x := cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			y := cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
			batch[0][0], batch[0][1] = z.Neg(), x
			batch[1][0], batch[1][1] = z.Neg(), y
			batch[2][0], batch[2][1], batch[2][2] = z, x.Neg(), y.Neg()
			s.AddClauses(batch)
		}
	})
}
