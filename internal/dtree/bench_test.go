package dtree

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkLearn times the trees of one learn phase: the Σ core's sample
// phase draws for sat2dqbf-004-h5 at seed 1 (400 samples), and one
// unbounded tree per existential y over its speculative features. The
// instance's dependency sets are empty, so those are Y \ {y}: 25 columns,
// where equal dependency sets make learning the costliest.
func BenchmarkLearn(b *testing.B) {
	in := gen.Generate(gen.FamilySAT2DQBF, 4, 1).DQBF
	samples := sampledSigma(b, in, 1)
	var sets []*Dataset
	for _, y := range in.Exist {
		if feats := speculativeFeatures(in, y); len(feats) > 0 {
			sets = append(sets, sigmaRows(samples, feats, y).columns())
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, d := range sets {
			if _, err := Learn(d, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
