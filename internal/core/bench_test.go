package core

import (
	"context"
	"testing"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// parityInstance builds ∀x1..xk ∃y . ϕ where ϕ forces y ↔ x1⊕…⊕xk through a
// Tseitin chain of auxiliary existentials. Parity is adversarial for shallow
// decision trees, so candidate learning is wrong on most points and the
// verify–repair loop must iterate many times — exactly the steady state the
// persistent-oracle architecture targets.
func parityInstance(k int) *dqbf.Instance {
	in := dqbf.NewInstance()
	for i := 1; i <= k; i++ {
		in.AddUniv(cnf.Var(i))
	}
	allX := make([]cnf.Var, k)
	for i := range allX {
		allX[i] = cnf.Var(i + 1)
	}
	y := cnf.Var(k + 1)
	in.AddExist(y, allX)
	b := boolfunc.NewBuilder()
	parity := b.Var(1)
	for i := 2; i <= k; i++ {
		parity = b.Xor(parity, b.Var(cnf.Var(i)))
	}
	spec := b.Not(b.Xor(b.Var(y), parity))
	out := b.ToCNF(spec, in.Matrix, boolfunc.CNFOptions{})
	in.Matrix.AddUnit(out)
	// Tseitin auxiliaries become existentials with full dependencies.
	declared := make(map[cnf.Var]bool)
	for _, v := range in.Univ {
		declared[v] = true
	}
	for _, v := range in.Exist {
		declared[v] = true
	}
	for _, c := range in.Matrix.Clauses {
		for _, l := range c {
			if !declared[l.Var()] {
				declared[l.Var()] = true
				in.AddExist(l.Var(), allX)
			}
		}
	}
	return in
}

// repairHeavyOptions keeps sampling cheap and trees shallow so the workload is
// dominated by verify–repair iterations rather than learning.
func repairHeavyOptions(seed int64) Options {
	return Options{Seed: seed, NumSamples: 24, treeMaxDepth: 2}
}

// BenchmarkVerifyRepair measures a multi-iteration verify–repair run: a parity
// instance whose learned candidates are wrong on most points, forcing dozens
// of verify calls, MaxSAT localizations, and core-guided repairs.
func BenchmarkVerifyRepair(b *testing.B) {
	in := parityInstance(5)
	opts := repairHeavyOptions(1)
	// Sanity outside the timed loop: the loop really iterates.
	res, err := Synthesize(context.Background(), in, opts)
	if err != nil {
		b.Fatalf("Synthesize: %v", err)
	}
	if res.Stats.RepairIterations < 3 {
		b.Fatalf("instance not repair-heavy: %d iterations", res.Stats.RepairIterations)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(context.Background(), in, opts); err != nil {
			b.Fatalf("Synthesize: %v", err)
		}
	}
}

// BenchmarkSynthesizeEndToEnd measures a full synthesis run (sampling,
// learning, preprocessing, verify–repair, substitution) on the paper's
// Example 1 — the everyday path rather than the repair-heavy extreme.
func BenchmarkSynthesizeEndToEnd(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(context.Background(), in, Options{Seed: 1}); err != nil {
			b.Fatalf("Synthesize: %v", err)
		}
	}
}
