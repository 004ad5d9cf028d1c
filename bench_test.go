// Package repro's top-level benchmarks regenerate every figure and table of
// the paper's evaluation (§6). The suite they run on is internal/gen's
// synthetic replica of the paper's instances; its package comment
// describes the families. Each benchmark runs a (size-reduced) version of
// the corresponding experiment and reports paper-shape metrics through
// b.ReportMetric:
//
//	BenchmarkFig6Cactus            — VBS vs VBS+Manthan3 solved counts
//	BenchmarkFig7ScatterVBS        — manthan3 vs VBS(expand+pedant)
//	BenchmarkFig8ScatterPedant     — manthan3 vs pedant
//	BenchmarkFig9ScatterHQS        — manthan3 vs expand (the HQS stand-in)
//	BenchmarkFig10ScatterBaselines — pedant vs expand
//	BenchmarkTable1SolvedCounts    — the in-text counts table
//
// Manthan3 has one configuration, so there is no ablation benchmark: its
// MaxSAT localization, Ŷ constraint and preprocessing run on every run.
//
// The full 563×3 sweep is cmd/benchrunner; these benches use stratified
// subsets so `go test -bench=.` stays laptop-scale.
package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
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
