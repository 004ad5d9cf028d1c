// Cross-module integration tests: the three engines must agree with each
// other and with brute force on instance truth, and every synthesized vector
// must pass the independent semantic verifier.
package repro

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/baselines/expand"
	"repro/internal/baselines/pedant"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/gen"

	_ "repro/internal/baselines/cegar"
)

// truthOf runs the complete expansion solver as ground truth.
func truthOf(t *testing.T, in *dqbf.Instance) (bool, bool) {
	t.Helper()
	_, err := expand.Solve(context.Background(), in, expand.Options{})
	switch {
	case err == nil:
		return true, true
	case errors.Is(err, expand.ErrFalse):
		return false, true
	default:
		return false, false
	}
}

func TestEnginesAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		in := dqbf.NewInstance()
		nX := 1 + rng.Intn(4)
		for i := 1; i <= nX; i++ {
			in.AddUniv(cnf.Var(i))
		}
		nY := 1 + rng.Intn(3)
		for j := 0; j < nY; j++ {
			y := cnf.Var(nX + j + 1)
			var deps []cnf.Var
			for i := 1; i <= nX; i++ {
				if rng.Intn(2) == 0 {
					deps = append(deps, cnf.Var(i))
				}
			}
			in.AddExist(y, deps)
		}
		for c := 0; c < 2+rng.Intn(5); c++ {
			k := 1 + rng.Intn(3)
			cl := make([]cnf.Lit, 0, k)
			for j := 0; j < k; j++ {
				v := cnf.Var(1 + rng.Intn(nX+nY))
				cl = append(cl, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			in.Matrix.AddClause(cl...)
		}
		want, ok := truthOf(t, in)
		if !ok {
			continue
		}
		// Pedant must agree exactly (it is complete).
		pres, perr := pedant.Solve(context.Background(), in, pedant.Options{})
		if want {
			if perr != nil {
				t.Fatalf("trial %d: pedant rejected True instance: %v", trial, perr)
			}
			if vr, err := dqbf.VerifyVector(in, pres.Vector, -1); err != nil || !vr.Valid {
				t.Fatalf("trial %d: pedant vector invalid", trial)
			}
		} else if !errors.Is(perr, pedant.ErrFalse) {
			t.Fatalf("trial %d: pedant on False instance: %v", trial, perr)
		}
		// Manthan3 may be incomplete but never wrong.
		mres, merr := core.Synthesize(context.Background(), in, core.Options{Seed: int64(trial)})
		if merr == nil {
			if !want {
				t.Fatalf("trial %d: manthan3 synthesized on a False instance", trial)
			}
			if vr, err := dqbf.VerifyVector(in, mres.Vector, -1); err != nil || !vr.Valid {
				t.Fatalf("trial %d: manthan3 vector invalid", trial)
			}
		} else if errors.Is(merr, core.ErrFalse) && want {
			t.Fatalf("trial %d: manthan3 declared True instance False", trial)
		}
	}
}

func TestSuiteInstancesEndToEnd(t *testing.T) {
	// A slice of each suite family solved end-to-end through DQDIMACS
	// serialization (parser → engine → verifier).
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilyRandom} {
		inst := gen.Generate(fam, 0, 2) // h=1, easiest tier
		var sb strings.Builder
		if err := dqbf.WriteDQDIMACS(&sb, inst.DQBF); err != nil {
			t.Fatal(err)
		}
		parsed, err := dqbf.ParseDQDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: reparse: %v", inst.Name, err)
		}
		res, err := expand.Solve(context.Background(), parsed, expand.Options{})
		if err != nil {
			t.Fatalf("%s: expand after round-trip: %v", inst.Name, err)
		}
		vr, err := dqbf.VerifyVector(parsed, res.Vector, -1)
		if err != nil || !vr.Valid {
			t.Fatalf("%s: vector invalid after round-trip", inst.Name)
		}
	}
}

func TestManthanSolvesPlantedSuiteInstances(t *testing.T) {
	solved := 0
	tried := 0
	for i := 0; i < 8; i++ {
		inst := gen.Generate(gen.FamilyRandom, i, 9)
		if inst.Known != gen.TruthTrue || inst.Hardness > 2 {
			continue
		}
		tried++
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := core.Synthesize(ctx, inst.DQBF, core.Options{Seed: 3})
		cancel()
		if err != nil {
			continue
		}
		if vr, verr := dqbf.VerifyVector(inst.DQBF, res.Vector, -1); verr == nil && vr.Valid {
			solved++
		} else {
			t.Fatalf("%s: invalid vector", inst.Name)
		}
	}
	if tried == 0 {
		t.Skip("no easy planted instances in this slice")
	}
	if solved == 0 {
		t.Fatalf("manthan3 solved 0/%d easy planted instances", tried)
	}
}

// TestBackendRegistryHasAllEngines pins the registry contract: every engine
// package registers itself under its stable name, and the registry is the
// single dispatch path for the CLIs and the bench harness.
func TestBackendRegistryHasAllEngines(t *testing.T) {
	for _, name := range []string{"manthan3", "expand", "cegar", "pedant"} {
		if _, err := backend.Get(name); err != nil {
			t.Fatalf("backend %q not registered: %v", name, err)
		}
	}
}

// TestBackendsEndToEnd runs every registered complete backend through the
// uniform interface on an easy True instance.
func TestBackendsEndToEnd(t *testing.T) {
	inst := gen.Generate(gen.FamilyRandom, 0, 42)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, name := range []string{"expand", "pedant"} {
		b, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Synthesize(ctx, inst.DQBF, backend.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vr, verr := dqbf.VerifyVector(inst.DQBF, res.Vector, -1); verr != nil || !vr.Valid {
			t.Fatalf("%s: invalid vector", name)
		}
		if res.Stats == "" {
			t.Fatalf("%s: empty stats line", name)
		}
	}
}

// TestAllBackendsReportPhaseTelemetry pins the phase-telemetry contract on
// every registered backend (and the portfolio of all of them): a successful
// Synthesize returns at least one PhaseStat, every reported phase has a
// non-zero duration, and at least one phase accounts for oracle calls.
// The instance is Skolem (full dependency sets) so even cegar's fragment
// covers it.
func TestAllBackendsReportPhaseTelemetry(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1, 2})
	// y ↔ (x1 ∨ x2).
	in.Matrix.AddClause(-3, 1, 2)
	in.Matrix.AddClause(3, -1)
	in.Matrix.AddClause(3, -2)

	specs := append([]string{}, backend.Names()...)
	specs = append(specs, "portfolio:"+strings.Join(backend.Names(), "+"))
	for _, spec := range specs {
		b, err := backend.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := b.Synthesize(ctx, in, backend.Options{Seed: 1})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(res.Phases) == 0 {
			t.Fatalf("%s: no phase telemetry", spec)
		}
		oracle := int64(0)
		for _, p := range res.Phases {
			if p.Duration <= 0 {
				t.Fatalf("%s: phase %s has non-positive duration %v", spec, p.Name, p.Duration)
			}
			oracle += p.OracleCalls
		}
		if oracle == 0 {
			t.Fatalf("%s: no phase accounts for any oracle call: %+v", spec, res.Phases)
		}
	}
}

// TestPortfolioEndToEnd races the three paper engines on real instances:
// the portfolio must return a valid vector (or a correct False proof) and
// must never be wrong, whichever member wins.
func TestPortfolioEndToEnd(t *testing.T) {
	var members []backend.Backend
	for _, name := range []string{"manthan3", "expand", "pedant"} {
		b, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, b)
	}
	p := backend.Portfolio(members...)
	for i := 0; i < 4; i++ {
		inst := gen.Generate(gen.FamilyRandom, i, 13)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := p.Synthesize(ctx, inst.DQBF, backend.Options{Seed: 1})
		cancel()
		switch {
		case err == nil:
			if inst.Known == gen.TruthFalse {
				t.Fatalf("%s: portfolio synthesized on a False instance", inst.Name)
			}
			if vr, verr := dqbf.VerifyVector(inst.DQBF, res.Vector, -1); verr != nil || !vr.Valid {
				t.Fatalf("%s: portfolio returned invalid vector", inst.Name)
			}
			if !strings.Contains(res.Stats, "winner=") {
				t.Fatalf("%s: stats missing winner: %q", inst.Name, res.Stats)
			}
		case errors.Is(err, backend.ErrFalse):
			if inst.Known == gen.TruthTrue {
				t.Fatalf("%s: portfolio declared a True instance False", inst.Name)
			}
		default:
			t.Logf("%s: portfolio inconclusive (acceptable): %v", inst.Name, err)
		}
	}
}
