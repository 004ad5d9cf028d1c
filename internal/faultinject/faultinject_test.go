package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/faultinject"

	_ "repro/internal/baselines/cegar"
	_ "repro/internal/baselines/expand"
	_ "repro/internal/baselines/pedant"
	_ "repro/internal/core"
)

// paperExample is Example 1 from the paper — small enough that every engine
// answers in milliseconds, so each matrix cell is cheap.
func paperExample() *dqbf.Instance {
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
	return in
}

func mustGet(t *testing.T, name string) backend.Backend {
	t.Helper()
	b, err := backend.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFaultMatrix is the resilience matrix: every fault kind, injected into
// every dispatch shape, must yield either a verified function vector or a
// taxonomy-classified error — and must never panic the process (a panic
// escaping here fails the whole test binary, which is the point).
func TestFaultMatrix(t *testing.T) {
	kinds := []faultinject.Rule{
		{Kind: faultinject.Panic, Nth: 1},
		{Kind: faultinject.Budget, Nth: 1},
		{Kind: faultinject.Unknown, Nth: 1},
		{Kind: faultinject.Cancel, Nth: 1},
		{Kind: faultinject.Stall, Nth: 1, Stall: 2 * time.Millisecond},
	}
	// Each shape builds a dispatch topology around the faulted backend;
	// wantVector says whether the shape must still answer despite the fault
	// ("" = depends on the kind).
	shapes := []struct {
		name  string
		build func(faulted backend.Backend) backend.Backend
		// survivesAll: the shape has a clean path around the faulted member,
		// so every fault kind must still produce a vector.
		survivesAll bool
	}{
		{"bare", func(f backend.Backend) backend.Backend {
			return backend.Protect(f)
		}, false},
		{"portfolio", func(f backend.Backend) backend.Backend {
			return backend.Portfolio(f, mustGet(t, "manthan3"))
		}, true},
		{"fallback", func(f backend.Backend) backend.Backend {
			return backend.Fallback(f, mustGet(t, "manthan3"))
		}, true},
		{"retry", func(f backend.Backend) backend.Backend {
			return backend.Retry(2, f)
		}, false},
	}
	for _, rule := range kinds {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%s/%s", rule.Kind, shape.name), func(t *testing.T) {
				plan := faultinject.New(1, rule)
				b := shape.build(plan.Backend(mustGet(t, "manthan3")))
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				in := paperExample()
				res, err := b.Synthesize(ctx, in, backend.Options{Seed: 1})
				if err != nil {
					if shape.survivesAll {
						t.Fatalf("%s has a clean path but failed: %v", shape.name, err)
					}
					if class := backend.Classify(err); class == backend.OutcomeError {
						t.Fatalf("unclassified error escaped the taxonomy: %v", err)
					}
					return
				}
				if res == nil || res.Vector == nil {
					t.Fatal("nil result without error")
				}
				if !dqbf.CheckVectorExhaustively(in, res.Vector) {
					t.Fatal("returned vector does not satisfy the instance")
				}
			})
		}
	}
}

// TestFaultMatrixExpectedClasses pins the classification of each fault kind
// on the bare (single-engine) shape, where nothing can mask it.
func TestFaultMatrixExpectedClasses(t *testing.T) {
	cases := []struct {
		rule faultinject.Rule
		want error // nil = must succeed
	}{
		{faultinject.Rule{Kind: faultinject.Panic, Nth: 1}, backend.ErrInternal},
		{faultinject.Rule{Kind: faultinject.Budget, Nth: 1}, backend.ErrBudget},
		{faultinject.Rule{Kind: faultinject.Unknown, Nth: 1}, backend.ErrIncomplete},
		{faultinject.Rule{Kind: faultinject.Cancel, Nth: 1}, backend.ErrCanceled},
		{faultinject.Rule{Kind: faultinject.Stall, Nth: 1, Stall: time.Millisecond}, nil},
	}
	for _, tc := range cases {
		t.Run(string(tc.rule.Kind), func(t *testing.T) {
			plan := faultinject.New(1, tc.rule)
			b := backend.Protect(plan.Backend(mustGet(t, "manthan3")))
			in := paperExample()
			res, err := b.Synthesize(context.Background(), in, backend.Options{Seed: 1})
			if tc.want == nil {
				if err != nil {
					t.Fatalf("stalled run failed: %v", err)
				}
				if !dqbf.CheckVectorExhaustively(in, res.Vector) {
					t.Fatal("stalled run returned a bad vector")
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if plan.Fired() != 1 {
				t.Fatalf("rule did not fire exactly once: %d", plan.Fired())
			}
		})
	}
}

// TestRetryRecoversFromInjectedBudget: a budget fault at call 1 must be
// retried with an escalated budget and succeed, with the retry visible in
// the dispatch telemetry.
func TestRetryRecoversFromInjectedBudget(t *testing.T) {
	plan := faultinject.New(1, faultinject.Rule{Kind: faultinject.Budget, Nth: 1})
	b := backend.Retry(2, plan.Backend(mustGet(t, "manthan3")))
	in := paperExample()
	res, err := b.Synthesize(context.Background(), in, backend.Options{Seed: 1})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if !dqbf.CheckVectorExhaustively(in, res.Vector) {
		t.Fatal("recovered vector does not satisfy the instance")
	}
	if !strings.HasPrefix(res.Stats, "retries=1;") {
		t.Fatalf("stats missing retry prefix: %q", res.Stats)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("want 2 attempts, got %+v", res.Attempts)
	}
	if res.Attempts[0].Outcome != backend.OutcomeBudget || res.Attempts[1].Outcome != backend.OutcomeOK {
		t.Fatalf("attempt outcomes wrong: %+v", res.Attempts)
	}
	if res.Attempts[1].Retries != 1 {
		t.Fatalf("second attempt not marked as round 1: %+v", res.Attempts)
	}
}

// TestDispatchBitIdenticalWithoutFaults: with no faults armed, fallback:
// and retry(k): specs must be observationally identical to the bare engine —
// same function vector (pointwise) and same engine stats, no prefixes.
func TestDispatchBitIdenticalWithoutFaults(t *testing.T) {
	run := func(spec string) (*backend.Result, *dqbf.Instance) {
		t.Helper()
		b, err := backend.Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		in := paperExample()
		res, err := b.Synthesize(context.Background(), in, backend.Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return res, in
	}
	base, baseIn := run("manthan3")
	for _, spec := range []string{"fallback:manthan3>expand", "retry(3):manthan3"} {
		res, in := run(spec)
		if res.Stats != base.Stats {
			t.Fatalf("%s stats diverged from bare engine:\n  bare: %q\n  spec: %q", spec, base.Stats, res.Stats)
		}
		if got, want := truthTable(in, res.Vector), truthTable(baseIn, base.Vector); got != want {
			t.Fatalf("%s vector diverged from bare engine:\n  bare: %s\n  spec: %s", spec, want, got)
		}
	}
}

// truthTable renders a function vector as each existential's output over
// every universal assignment — a canonical form for bit-identity checks.
func truthTable(in *dqbf.Instance, fv *dqbf.FuncVector) string {
	var sb strings.Builder
	n := len(in.Univ)
	for mask := 0; mask < 1<<n; mask++ {
		a := cnf.NewAssignment(in.Matrix.NumVars)
		for i, x := range in.Univ {
			a.SetBool(x, mask&(1<<i) != 0)
		}
		for _, y := range in.Exist {
			fmt.Fprintf(&sb, "%d:%v ", y, fv.B.Eval(fv.Funcs[y], a))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestParse(t *testing.T) {
	rules, err := faultinject.Parse(" panic@1, stall(5ms)@4 ,budget ")
	if err != nil {
		t.Fatal(err)
	}
	want := []faultinject.Rule{
		{Kind: faultinject.Panic, Nth: 1},
		{Kind: faultinject.Stall, Nth: 4, Stall: 5 * time.Millisecond},
		{Kind: faultinject.Budget},
	}
	if len(rules) != len(want) {
		t.Fatalf("got %+v", rules)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d: got %+v want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{"", "explode@1", "panic@0", "panic@x", "stall(-3ms)@1", "stall(3ms@1"} {
		if _, err := faultinject.Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestDerivedIndicesDeterministic: Nth=0 rules resolve to the same firing
// index for the same seed, and the plan string exposes it.
func TestDerivedIndicesDeterministic(t *testing.T) {
	a := faultinject.New(42, faultinject.Rule{Kind: faultinject.Budget})
	b := faultinject.New(42, faultinject.Rule{Kind: faultinject.Budget})
	if a.String() != b.String() {
		t.Fatalf("same seed produced different plans: %s vs %s", a, b)
	}
	if !strings.Contains(a.String(), "budget@") {
		t.Fatalf("plan string missing resolved index: %s", a)
	}
}
