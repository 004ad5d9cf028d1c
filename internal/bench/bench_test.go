package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

// miniSuite returns a small, fast subset of the benchmark suite.
func miniSuite() []gen.Named {
	var out []gen.Named
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for i := 0; i < 3; i++ {
			out = append(out, gen.Generate(fam, i, 77))
		}
	}
	return out
}

func TestRunEngineAllEnginesOnEasyInstance(t *testing.T) {
	inst := gen.Generate(gen.FamilyRandom, 0, 42) // h=1 planted
	for _, e := range Engines {
		r := RunEngine(context.Background(), e, inst.DQBF, Options{Timeout: 5 * time.Second, Seed: 1})
		if r.Outcome != Synthesized && r.Outcome != GaveUp && r.Outcome != TimedOut {
			t.Fatalf("%s: outcome %v (%s)", e, r.Outcome, r.Detail)
		}
		if r.Duration <= 0 {
			t.Fatalf("%s: no duration recorded", e)
		}
	}
}

// TestRunEngineLateVerdictTimesOut: an engine that finds a valid vector but
// returns it after the run's timeout has not solved the instance within it.
// The wrapper calls the engine, then sleeps past the 50 ms timeout before
// returning the vector; the run classifies TimedOut with its full Duration.
func TestRunEngineLateVerdictTimesOut(t *testing.T) {
	inst := gen.Generate(gen.FamilyRandom, 0, 42) // h=1 planted
	const timeout = 50 * time.Millisecond
	wrap := func(b backend.Backend) backend.Backend {
		return backend.NewFunc(b.Name(), func(ctx context.Context, in *dqbf.Instance, opts backend.Options) (*backend.Result, error) {
			res, err := b.Synthesize(ctx, in, opts)
			time.Sleep(2 * timeout)
			return res, err
		})
	}
	r := RunEngine(context.Background(), EngineManthan3, inst.DQBF, Options{Timeout: timeout, Seed: 1, WrapBackend: wrap})
	if r.Outcome != TimedOut {
		t.Fatalf("late vector classified %v (%s), want %v", r.Outcome, r.Detail, TimedOut)
	}
	if r.Duration < 2*timeout {
		t.Fatalf("Duration %v, want at least the %v the wrapper slept", r.Duration, 2*timeout)
	}
}

func TestRunEngineUnknownEngine(t *testing.T) {
	inst := gen.Generate(gen.FamilyRandom, 0, 42)
	r := RunEngine(context.Background(), "nope", inst.DQBF, Options{})
	if r.Outcome != Failed {
		t.Fatalf("unknown engine: %v", r.Outcome)
	}
}

// TestRunEngineRecordsPhases: a synthesized run carries the backend's
// per-phase telemetry, including for portfolio and seed-pinned specs —
// the data behind the per-phase CSV columns and the report's breakdown.
func TestRunEngineRecordsPhases(t *testing.T) {
	inst := gen.Generate(gen.FamilyRandom, 0, 42)
	for _, spec := range []string{EngineExpand, "manthan3@3", "portfolio:expand+manthan3"} {
		r := RunEngine(context.Background(), spec, inst.DQBF, Options{Timeout: 10 * time.Second, Seed: 1})
		if r.Outcome != Synthesized {
			t.Fatalf("%s: outcome %v (%s)", spec, r.Outcome, r.Detail)
		}
		if r.Engine != spec {
			t.Fatalf("engine label %q, want the spec %q", r.Engine, spec)
		}
		if len(r.Phases) == 0 {
			t.Fatalf("%s: synthesized run has no phases", spec)
		}
		for _, p := range r.Phases {
			if p.Duration <= 0 {
				t.Fatalf("%s: phase %s has non-positive duration", spec, p.Name)
			}
		}
	}
}

// TestTableDerivesEngines: without an explicit report set, NewTable
// collects the engines from the results in first-appearance order, so
// replayed CSVs with non-canonical competitor sets still report fully.
func TestTableDerivesEngines(t *testing.T) {
	results := []RunResult{
		{Instance: "a", Engine: "pedant", Outcome: Synthesized, Duration: time.Second},
		{Instance: "a", Engine: "portfolio:expand+cegar", Outcome: Synthesized, Duration: time.Second / 2},
		{Instance: "b", Engine: "pedant", Outcome: TimedOut, Duration: time.Second},
	}
	tab := NewTable(results)
	want := []string{"pedant", "portfolio:expand+cegar"}
	if len(tab.Engines) != len(want) || tab.Engines[0] != want[0] || tab.Engines[1] != want[1] {
		t.Fatalf("derived engines %v, want %v", tab.Engines, want)
	}
	if n := tab.VBSSolvedCount(tab.Engines); n != 1 {
		t.Fatalf("VBS over derived engines: %d, want 1", n)
	}
	// An explicit report set pins order and keeps engines with no rows.
	tab = NewTable(results, "expand", "pedant")
	if len(tab.Engines) != 3 || tab.Engines[0] != "expand" {
		t.Fatalf("explicit engines %v", tab.Engines)
	}
	if tab.SolvedCount("expand") != 0 {
		t.Fatal("engine with no rows must count zero solved")
	}
}

func TestRunSuiteAndTable(t *testing.T) {
	suite := miniSuite()
	results := RunSuite(context.Background(), suite, Options{Timeout: 3 * time.Second, Workers: 4, Seed: 9})
	if len(results) != len(suite)*len(Engines) {
		t.Fatalf("results: %d, want %d", len(results), len(suite)*len(Engines))
	}
	tab := NewTable(results)
	if len(tab.Instances) != len(suite) {
		t.Fatalf("instances: %d, want %d", len(tab.Instances), len(suite))
	}
	// The complete expansion solver must synthesize all small planted-True
	// instances in this subset.
	for _, inst := range suite {
		if inst.Known != gen.TruthTrue || inst.Hardness > 2 {
			continue
		}
		if _, ok := tab.synthesized(EngineExpand, inst.Name); !ok {
			r := tab.ByEngine[EngineExpand][inst.Name]
			t.Errorf("expand failed easy planted %s: %v %s", inst.Name, r.Outcome, r.Detail)
		}
	}
	// VBS must dominate every individual engine.
	vbs := tab.VBSSolvedCount(Engines)
	for _, e := range Engines {
		if tab.SolvedCount(e) > vbs {
			t.Fatalf("VBS %d < engine %s %d", vbs, e, tab.SolvedCount(e))
		}
	}
	// Cactus series are sorted and consistent with counts.
	series := tab.CactusSeries(Engines)
	if len(series) != vbs {
		t.Fatalf("cactus length %d != VBS %d", len(series), vbs)
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatal("cactus series not sorted")
		}
	}
	// Summary invariants.
	sc := Summarize(tab, 3*time.Second)
	if sc.VBSAll < sc.VBSBaselines {
		t.Fatal("adding Manthan3 shrank the VBS")
	}
	if sc.UniqueByEngine[EngineManthan3] != sc.VBSAll-sc.VBSBaselines {
		t.Fatalf("unique-by-manthan3 %d != VBS lift %d",
			sc.UniqueByEngine[EngineManthan3], sc.VBSAll-sc.VBSBaselines)
	}
	var sb strings.Builder
	if err := WriteSummary(&sb, sc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "VBS") {
		t.Fatal("summary missing VBS lines")
	}
}

func TestScatterAndCSV(t *testing.T) {
	suite := miniSuite()[:6]
	results := RunSuite(context.Background(), suite, Options{Timeout: 3 * time.Second, Workers: 4})
	tab := NewTable(results)
	pts := tab.Scatter([]string{EngineExpand, EnginePedant}, EngineManthan3, 3*time.Second)
	for _, p := range pts {
		if p.XSolved && p.XTime > 3*time.Second {
			t.Fatal("solved point beyond timeout")
		}
	}
	var sb strings.Builder
	if err := WriteScatterCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "instance,") {
		t.Fatal("scatter CSV missing header")
	}
	var c strings.Builder
	if err := WriteCactusCSV(&c, tab, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("cactus CSV too short:\n%s", c.String())
	}
}

func TestASCIIRenderers(t *testing.T) {
	suite := miniSuite()[:6]
	results := RunSuite(context.Background(), suite, Options{Timeout: 3 * time.Second, Workers: 4})
	tab := NewTable(results)
	art := RenderCactusASCII(tab, 3*time.Second, 40, 10)
	if !strings.Contains(art, "Fig 6") {
		t.Fatal("cactus art missing title")
	}
	pts := tab.Scatter([]string{EngineExpand}, EngineManthan3, 3*time.Second)
	s := RenderScatterASCII(pts, "expand", "manthan3", 3*time.Second, 20)
	if !strings.Contains(s, "scatter") {
		t.Fatal("scatter art missing title")
	}
}

func TestFamilyBreakdown(t *testing.T) {
	suite := miniSuite()
	results := RunSuite(context.Background(), suite, Options{Timeout: 3 * time.Second, Workers: 4})
	b := FamilyBreakdown(results)
	fams := SortedFamilies(b)
	if len(fams) == 0 {
		t.Fatal("no families recorded")
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1] >= fams[i] {
			t.Fatal("families not sorted")
		}
	}
}

func TestWithinExtra(t *testing.T) {
	pts := []ScatterPoint{
		{XSolved: true, YSolved: true, XTime: time.Second, YTime: time.Second + 500*time.Millisecond},
		{XSolved: true, YSolved: true, XTime: time.Second, YTime: 3 * time.Second},
		{XSolved: true, YSolved: false},
	}
	if got := WithinExtra(pts, time.Second); got != 1 {
		t.Fatalf("WithinExtra: %d, want 1", got)
	}
}
