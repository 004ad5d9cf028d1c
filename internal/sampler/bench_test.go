package sampler

import (
	"context"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// BenchmarkSample times one Sample call as core's sample phase makes it: 400
// samples over X ∪ Y at seed 1. Each sub-benchmark is named after the path
// it times. The calls pass no constants, definitions or existentials, so
// every variable is universal to the row path and each row a full
// assignment. random-002-h3 has 23 variables, too many to scan, and fewer
// than a quarter of the row path's first rowProbe rows are models, so it
// declines and Sample draws, every draw finding a new projection: this
// times the draw loop plus what the row path pays to decline.
// controller-000-h1 has 11 variables and fewer than 400 models, so Sample
// enumerates them; the draw loop alone on the same formula keeps the
// blocking switch timed, since its draws repeat until the loop switches to
// blocking.
func BenchmarkSample(b *testing.B) {
	for _, c := range []struct {
		path string
		fam  gen.Family
		idx  int
		fn   func(context.Context, *cnf.Formula, int, Options) ([]cnf.Assignment, error)
	}{
		{"drawn", gen.FamilyRandom, 2, Sample},
		{"enumerated", gen.FamilyController, 0, Sample},
		{"draw-loop", gen.FamilyController, 0, draw},
	} {
		named := gen.Generate(c.fam, c.idx, 1)
		in := named.DQBF
		opts := Options{
			Seed: 1,
			Vars: append(append([]cnf.Var(nil), in.Univ...), in.Exist...),
		}
		b.Run(c.path+"/"+named.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.fn(context.Background(), in.Matrix, 400, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
