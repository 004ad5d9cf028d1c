package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// twoBlockParityInstance builds ∀x1..x4 ∃y1(x1,x2) ∃y2(x3,x4) . ϕ forcing
// y1 ↔ x1⊕x2 and y2 ↔ x3⊕x4. The two existentials have disjoint dependency
// sets, so neither can ever appear in the other's Ŷ — when both land in one
// repair round's queue they form an independent batch, exercising the
// pooled candidate-verification path. Parity keeps shallow learned trees
// wrong on most points, so repair rounds genuinely occur.
func twoBlockParityInstance() *dqbf.Instance {
	in := dqbf.NewInstance()
	for i := 1; i <= 4; i++ {
		in.AddUniv(cnf.Var(i))
	}
	b := boolfunc.NewBuilder()
	y1, y2 := cnf.Var(5), cnf.Var(6)
	blocks := []struct {
		y    cnf.Var
		deps []cnf.Var
	}{
		{y1, []cnf.Var{1, 2}},
		{y2, []cnf.Var{3, 4}},
	}
	for _, blk := range blocks {
		in.AddExist(blk.y, blk.deps)
	}
	for _, blk := range blocks {
		spec := b.Not(b.Xor(b.Var(blk.y), b.Xor(b.Var(blk.deps[0]), b.Var(blk.deps[1]))))
		before := in.Matrix.NumVars
		out := b.ToCNF(spec, in.Matrix, boolfunc.CNFOptions{})
		in.Matrix.AddUnit(out)
		// Tseitin auxiliaries stay inside their block's dependency set.
		for v := before + 1; v <= in.Matrix.NumVars; v++ {
			in.AddExist(cnf.Var(v), blk.deps)
		}
	}
	return in
}

// TestBatchedVerifyDeterministic asserts the headline property of the
// batched repair-verification phase: for a fixed seed, the synthesized
// functions, certificate, and every stat are bit-identical for every
// VerifyWorkers count — the fixed-slot solver pool guarantees each probe
// sees the same solver history regardless of how many goroutines drain the
// slots. It also pins that the two-block instance actually exercises the
// batched path, so the determinism claim is not vacuous.
func TestBatchedVerifyDeterministic(t *testing.T) {
	res, err := Synthesize(context.Background(), twoBlockParityInstance(),
		Options{Seed: 7, NumSamples: 8, treeMaxDepth: 1, VerifyWorkers: 2})
	if err != nil {
		t.Fatalf("twoBlockParityInstance does not synthesize: %v", err)
	}
	if res.Stats.VerifyBatches == 0 {
		t.Fatalf("two-block instance never batched independent candidates: %+v", res.Stats)
	}
	if res.Stats.BatchedProbes < 2*res.Stats.VerifyBatches {
		t.Fatalf("batches should hold ≥2 probes each: %+v", res.Stats)
	}

	instances := map[string]*dqbf.Instance{
		"two-block": twoBlockParityInstance(),
		"parity":    parityInstance(5),
		"paper":     paperExample(),
		"chain":     plantedChainInstance(3, 4, 5),
	}
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for name, in := range instances {
		opts := func(w int) Options {
			return Options{Seed: 7, NumSamples: 8, treeMaxDepth: 1, VerifyWorkers: w}
		}
		want := outcomeFingerprint(t, in, opts(workerCounts[0]))
		for _, w := range workerCounts[1:] {
			if got := outcomeFingerprint(t, in, opts(w)); got != want {
				t.Fatalf("%s: verify-workers=%d diverges from verify-workers=%d:\n--- want ---\n%s\n--- got ---\n%s",
					name, w, workerCounts[0], want, got)
			}
		}
	}
}

// TestVerifyRepairAllocBudget pins the zero-alloc verify–repair acceptance
// bar as a plain test: a full repair-heavy synthesis run must stay under
// 2,000 heap allocations — the arena-backed function DAG, the engine-owned
// repair scratch, and the pooled verification probes together brought it
// down from ~10,700, and this guard keeps incidental per-round allocations
// from creeping back in.
func TestVerifyRepairAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the non-race pass")
	}
	if testing.Short() {
		t.Skip("multi-run synthesis guard is not short")
	}
	in := parityInstance(5)
	opts := repairHeavyOptions(1)
	run := func() {
		if _, err := Synthesize(context.Background(), in, opts); err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
	}
	run() // warm-up, mirroring the benchmark's sanity run
	if avg := testing.AllocsPerRun(5, run); avg >= 2000 {
		t.Fatalf("verify–repair synthesis allocates %.0f objects per run, want < 2000", avg)
	}
}
