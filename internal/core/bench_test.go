package core

import (
	"context"
	"testing"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

// parityInstance builds ∀x1..xk ∃y . y ↔ x1⊕…⊕xk, the spec written directly
// as 2^k clauses of width k+1: parityInstance(k) is blockParityInstance(1, k).
// Parity is adversarial for shallow decision trees, so candidate learning
// is wrong on most points and the verify–repair loop must iterate many
// times — exactly the steady state the persistent-oracle architecture
// targets. For k ≥ 4 every clause is wider than any gate the preprocess
// phase's definitions step reads, so nothing defines y there.
func parityInstance(k int) *dqbf.Instance {
	return blockParityInstance(1, k)
}

// blockParityInstance builds blocks disjoint parity blocks of k universals
// each: block b forces yb ↔ the parity of its k inputs, with H(yb) those
// inputs, through the 2^k clauses that each exclude one wrong row.
func blockParityInstance(blocks, k int) *dqbf.Instance {
	in := dqbf.NewInstance()
	for i := 1; i <= blocks*k; i++ {
		in.AddUniv(cnf.Var(i))
	}
	lits := make([]cnf.Lit, k+1)
	for blk := 0; blk < blocks; blk++ {
		xs := in.Univ[blk*k : (blk+1)*k]
		y := cnf.Var(blocks*k + blk + 1)
		in.AddExist(y, xs)
		for row := 0; row < 1<<k; row++ {
			odd := false
			for i, x := range xs {
				bit := row>>i&1 != 0
				lits[i] = cnf.MkLit(x, !bit) // false exactly on this row
				odd = odd != bit
			}
			lits[k] = cnf.MkLit(y, odd)
			in.Matrix.AddClause(lits...)
		}
	}
	return in
}

// repairHeavyOptions keeps sampling cheap and trees shallow so the workload is
// dominated by verify–repair iterations rather than learning.
func repairHeavyOptions(seed int64) Options {
	return Options{Seed: seed, numSamples: 24, treeMaxDepth: 2}
}

// BenchmarkVerifyRepair measures a multi-iteration verify–repair run: a parity
// instance whose learned candidates are wrong on most points, forcing 16
// rounds of verify calls, MaxSAT localizations, and core-guided repairs.
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

// BenchmarkRowRepair synthesizes controller-008-h4 (gen seed 1) at
// suite-manthan3's engine settings: 200 repair rounds. The controller's
// escape circuit reads universals outside the control bits' dependency
// sets, so Gk is satisfiable at most counterexamples and most rounds end in
// a row repair from Gk with all of X pinned; the run answers in 12 rounds,
// where a repair of one full row σ[Hk] per round ran out of the 200.
func BenchmarkRowRepair(b *testing.B) {
	in := gen.Generate(gen.FamilyController, 8, 1).DQBF
	opts := Options{Seed: 1, MaxRepairIterations: 200}
	// Sanity outside the timed loop: the run answers through row repairs.
	res, err := Synthesize(context.Background(), in, opts)
	if err != nil {
		b.Fatalf("Synthesize: %v", err)
	}
	if res.Stats.RowRepairs == 0 {
		b.Fatalf("no row repair: %+v", res.Stats)
	}
	b.ReportAllocs()
	for b.Loop() {
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

// BenchmarkSamplePhase times core's sample phase after preprocessing, with
// the default 400 samples: what one engine run pays for Σ, beside the
// sampler's own BenchmarkSample. Each formula is from gen seed 1, and each
// sub-benchmark but the first is named after the sampler path it times.
// random-001-h2 has 18 variables, but preprocessing leaves 13 of them open,
// the 12 universals and one existential, so the sampler scans that support.
// random-002-h3 leaves 16 universals and two existentials open, so the row
// path evaluates each of 400 rows on all four completions in one word.
// sat2dqbf-001-h2 leaves 6 universals and 14 existentials, so the row path
// takes each of the 64 rows and completes it by rejection. None of them
// makes a solver call. Each formula also gets a sample/ sub-benchmark, the
// phase's drawSamples call alone, and a pack/ one, its packSamples call on
// that output, so a change in one half is not read off the other: where
// the linker places packSamples moves the whole phase by several percent.
func BenchmarkSamplePhase(b *testing.B) {
	for _, c := range []struct {
		path string
		fam  gen.Family
		idx  int
	}{
		{"", gen.FamilyRandom, 1},
		{"rows/", gen.FamilyRandom, 2},
		{"rows-rejection/", gen.FamilySAT2DQBF, 1},
	} {
		named := gen.Generate(c.fam, c.idx, 1)
		e := newEngine(context.Background(), named.DQBF, Options{Seed: 1}.withDefaults())
		if err := e.preprocess(); err != nil {
			b.Fatal(err)
		}
		b.Run(c.path+named.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := e.samplePhase(); err != nil {
					b.Fatal(err)
				}
			}
		})
		vars := append(append([]cnf.Var(nil), named.DQBF.Univ...), named.DQBF.Exist...) // as samplePhase orders them
		samples, err := e.drawSamples(vars)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("sample/"+c.path+named.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.drawSamples(vars); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("pack/"+c.path+named.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if m := packSamples(vars, samples); m.n != len(samples) {
					b.Fatalf("packed %d of %d samples", m.n, len(samples))
				}
			}
		})
	}
}

// BenchmarkPreprocess times the preprocess phase alone on two gen seed 1
// instances: sat2dqbf-004-h5, whose unate checks all answer not unate, and
// controller-003-h4. Each round preprocesses a fresh engine; building it,
// which loads ϕ into the run's ϕ-solver, is not timed.
func BenchmarkPreprocess(b *testing.B) {
	for _, c := range []struct {
		fam gen.Family
		idx int
	}{{gen.FamilySAT2DQBF, 4}, {gen.FamilyController, 3}} {
		named := gen.Generate(c.fam, c.idx, 1)
		opts := Options{Seed: 1}.withDefaults()
		b.Run(named.Name, func(b *testing.B) {
			b.ReportAllocs()
			// A b.N loop: Go 1.24's b.Loop measures its time budget from the
			// last StartTimer, so with the timer stopped each round it never
			// ends.
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newEngine(context.Background(), named.DQBF, opts)
				b.StartTimer()
				if err := e.preprocess(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifySolverBuild times buildVerifySolver alone, the first build
// of the verification solver: ¬ϕ(X,Y′) and the Tseitin encoding of every
// candidate, each under its clause group. It runs on two gen seed 1
// instances after preprocess, sample and learn: sat2dqbf-004-h5, which
// learns 26 trees, and controller-003-h4. Each round rebuilds the solver
// from the same candidates.
func BenchmarkVerifySolverBuild(b *testing.B) {
	for _, c := range []struct {
		fam gen.Family
		idx int
	}{{gen.FamilySAT2DQBF, 4}, {gen.FamilyController, 3}} {
		named := gen.Generate(c.fam, c.idx, 1)
		e := newEngine(context.Background(), named.DQBF, Options{Seed: 1}.withDefaults())
		for _, phase := range []func() error{e.preprocess, e.samplePhase, e.learnPhase} {
			if err := phase(); err != nil {
				b.Fatal(err)
			}
		}
		// Sanity outside the timed loop: the candidates encode to clauses.
		enc := cnf.New(named.DQBF.Matrix.NumVars)
		var cache boolfunc.Cache
		for _, y := range named.DQBF.Exist {
			e.b.ToCNF(e.funcs[y], enc, boolfunc.CNFOptions{Cache: &cache})
		}
		if len(enc.Clauses) == 0 {
			b.Fatalf("%s: the candidates encode to no clause", named.Name)
		}
		b.Run(named.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				e.buildVerifySolver()
			}
		})
	}
}
