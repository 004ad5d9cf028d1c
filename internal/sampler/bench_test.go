package sampler

import (
	"context"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
)

// BenchmarkSample times one Sample call as core's sample phase makes it: 400
// samples over X ∪ Y with adaptive sampling on Y, at seed 1. On
// random-002-h3 every draw finds a new projection; controller-000-h1's
// projected space is small enough that draws repeat and the sampler
// finishes it by blocking.
func BenchmarkSample(b *testing.B) {
	for _, c := range []struct {
		fam gen.Family
		idx int
	}{{gen.FamilyRandom, 2}, {gen.FamilyController, 0}} {
		named := gen.Generate(c.fam, c.idx, 1)
		in := named.DQBF
		opts := Options{
			Seed:         1,
			Vars:         append(append([]cnf.Var(nil), in.Univ...), in.Exist...),
			AdaptiveVars: in.Exist,
		}
		b.Run(named.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Sample(context.Background(), in.Matrix, 400, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
