// Package repro's top-level benchmarks regenerate every figure and table of
// the paper's evaluation (§6) plus ablations of core.Options. The suite
// they run on is internal/gen's synthetic replica of the paper's
// instances; its package comment describes the families. Each benchmark
// runs a (size-reduced) version of the corresponding experiment and
// reports paper-shape metrics through b.ReportMetric:
//
//	BenchmarkFig6Cactus               — VBS vs VBS+Manthan3 solved counts
//	BenchmarkFig7ScatterVBS           — manthan3 vs VBS(expand+pedant)
//	BenchmarkFig8ScatterPedant        — manthan3 vs pedant
//	BenchmarkFig9ScatterHQS           — manthan3 vs expand (the HQS stand-in)
//	BenchmarkFig10ScatterBaselines    — pedant vs expand
//	BenchmarkTable1SolvedCounts       — the in-text counts table
//	BenchmarkAblationFindCandi        — MaxSAT fault localization on/off
//	BenchmarkAblationYHat             — Ŷ constraint in Gk on/off
//	BenchmarkAblationAdaptiveSampling — adaptive sampling bias on/off
//	BenchmarkAblationPreprocess       — unate detection and gate definitions on/off
//	BenchmarkAblationSampleCount      — 50, 400 and 1000 training samples
//
// The full 563×3 sweep is cmd/benchrunner; these benches use stratified
// subsets so `go test -bench=.` stays laptop-scale.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

const benchTimeout = 1500 * time.Millisecond

// benchSuite returns a stratified slice of n instances from the suite.
func benchSuite(n int) []gen.Named {
	full := gen.Suite(1)
	byFam := make(map[gen.Family][]gen.Named)
	order := []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom}
	for _, s := range full {
		byFam[s.Family] = append(byFam[s.Family], s)
	}
	out := make([]gen.Named, 0, n)
	for i := 0; len(out) < n; i++ {
		for _, fam := range order {
			if i < len(byFam[fam]) && len(out) < n {
				out = append(out, byFam[fam][i])
			}
		}
	}
	return out
}

func runTable(b *testing.B, n int) *bench.Table {
	b.Helper()
	suite := benchSuite(n)
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		results := bench.RunSuite(context.Background(), suite, bench.Options{Timeout: benchTimeout, Seed: 1})
		tab = bench.NewTable(results)
	}
	return tab
}

func BenchmarkFig6Cactus(b *testing.B) {
	tab := runTable(b, 40)
	vbs := tab.VBSSolvedCount([]string{bench.EngineExpand, bench.EnginePedant})
	all := tab.VBSSolvedCount(bench.Engines)
	b.ReportMetric(float64(vbs), "VBS-solved")
	b.ReportMetric(float64(all), "VBS+Manthan3-solved")
	b.ReportMetric(float64(all-vbs), "VBS-lift")
}

func BenchmarkFig7ScatterVBS(b *testing.B) {
	tab := runTable(b, 40)
	pts := tab.Scatter([]string{bench.EngineExpand, bench.EnginePedant}, bench.EngineManthan3, benchTimeout)
	b.ReportMetric(float64(len(pts)), "points")
	b.ReportMetric(float64(bench.WithinExtra(pts, benchTimeout/200)), "within-scaled-10s")
}

func BenchmarkFig8ScatterPedant(b *testing.B) {
	tab := runTable(b, 40)
	b.ReportMetric(float64(tab.BeatsCount(bench.EngineManthan3, bench.EnginePedant)), "manthan3-only")
	b.ReportMetric(float64(tab.BeatsCount(bench.EnginePedant, bench.EngineManthan3)), "pedant-only")
}

func BenchmarkFig9ScatterHQS(b *testing.B) {
	tab := runTable(b, 40)
	b.ReportMetric(float64(tab.BeatsCount(bench.EngineManthan3, bench.EngineExpand)), "manthan3-only")
	b.ReportMetric(float64(tab.BeatsCount(bench.EngineExpand, bench.EngineManthan3)), "expand-only")
}

func BenchmarkFig10ScatterBaselines(b *testing.B) {
	tab := runTable(b, 40)
	b.ReportMetric(float64(tab.BeatsCount(bench.EnginePedant, bench.EngineExpand)), "pedant-only")
	b.ReportMetric(float64(tab.BeatsCount(bench.EngineExpand, bench.EnginePedant)), "expand-only")
}

func BenchmarkTable1SolvedCounts(b *testing.B) {
	tab := runTable(b, 40)
	sc := bench.Summarize(tab, benchTimeout)
	b.ReportMetric(float64(sc.SolvedByEngine[bench.EngineExpand]), "hqs-solved")
	b.ReportMetric(float64(sc.SolvedByEngine[bench.EnginePedant]), "pedant-solved")
	b.ReportMetric(float64(sc.SolvedByEngine[bench.EngineManthan3]), "manthan3-solved")
	b.ReportMetric(float64(sc.UniqueByEngine[bench.EngineManthan3]), "manthan3-unique")
	b.ReportMetric(float64(sc.FastestManthan3), "manthan3-fastest")
}

// ablationSuite returns True instances suited to engine-internal ablations.
func ablationSuite(n int) []gen.Named {
	var out []gen.Named
	for i := 0; len(out) < n; i++ {
		inst := gen.Generate(gen.FamilyRandom, i, 5)
		if inst.Known == gen.TruthTrue {
			out = append(out, inst)
		}
	}
	return out
}

func runAblation(b *testing.B, opts core.Options) {
	b.Helper()
	suite := ablationSuite(10)
	solved := 0
	for i := 0; i < b.N; i++ {
		solved = 0
		for _, inst := range suite {
			ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
			res, err := core.Synthesize(ctx, inst.DQBF, opts)
			cancel()
			if err != nil {
				continue
			}
			if vr, verr := dqbf.VerifyVector(inst.DQBF, res.Vector, -1); verr == nil && vr.Valid {
				solved++
			}
		}
	}
	b.ReportMetric(float64(solved), "solved")
	b.ReportMetric(float64(len(suite)), "instances")
}

func BenchmarkAblationFindCandi(b *testing.B) {
	b.Run("maxsat-on", func(b *testing.B) { runAblation(b, core.Options{Seed: 1}) })
	b.Run("maxsat-off", func(b *testing.B) {
		runAblation(b, core.Options{Seed: 1, DisableMaxSATLocalization: true})
	})
}

func BenchmarkAblationYHat(b *testing.B) {
	b.Run("yhat-on", func(b *testing.B) { runAblation(b, core.Options{Seed: 1}) })
	b.Run("yhat-off", func(b *testing.B) { runAblation(b, core.Options{Seed: 1, DisableYHat: true}) })
}

func BenchmarkAblationAdaptiveSampling(b *testing.B) {
	b.Run("adaptive-on", func(b *testing.B) { runAblation(b, core.Options{Seed: 1}) })
	b.Run("adaptive-off", func(b *testing.B) {
		runAblation(b, core.Options{Seed: 1, DisableAdaptiveSampling: true})
	})
}

func BenchmarkAblationPreprocess(b *testing.B) {
	b.Run("preprocess-on", func(b *testing.B) { runAblation(b, core.Options{Seed: 1}) })
	b.Run("preprocess-off", func(b *testing.B) {
		runAblation(b, core.Options{Seed: 1, DisablePreprocess: true})
	})
}

func BenchmarkAblationSampleCount(b *testing.B) {
	for _, n := range []int{50, 400, 1000} {
		b.Run(fmt.Sprintf("samples-%d", n), func(b *testing.B) {
			runAblation(b, core.Options{Seed: 1, NumSamples: n})
		})
	}
}
