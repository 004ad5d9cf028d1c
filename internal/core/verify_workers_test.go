package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dqbf"
	"repro/internal/gen"
)

// TestBatchedVerifyDeterministic asserts the headline property of the
// batched repair-verification phase: for a fixed seed, the synthesized
// functions, certificate, and every stat are bit-identical for every
// VerifyWorkers count — the fixed-slot solver pool guarantees each probe
// sees the same solver history regardless of how many goroutines drain the
// slots. It also pins that the four-block instance actually exercises the
// batched path, so the determinism claim is not vacuous: its four parity
// blocks have disjoint dependency sets, so no block's existential is in
// another's Ŷ, and when several land in one repair round's queue they form
// an independent batch.
func TestBatchedVerifyDeterministic(t *testing.T) {
	res, err := Synthesize(context.Background(), blockParityInstance(4, 4),
		Options{Seed: 7, numSamples: 8, treeMaxDepth: 1, VerifyWorkers: 2})
	if err != nil {
		t.Fatalf("four-block parity instance does not synthesize: %v", err)
	}
	if res.Stats.VerifyBatches == 0 {
		t.Fatalf("four-block instance never batched independent candidates: %+v", res.Stats)
	}
	if res.Stats.BatchedProbes < 2*res.Stats.VerifyBatches {
		t.Fatalf("batches should hold ≥2 probes each: %+v", res.Stats)
	}

	// controller-008-h4's runs patch rows from Gk with all of X pinned, a
	// query the serial merge poses on the ϕ-solver after batched probes.
	controller := gen.Generate(gen.FamilyController, 8, 1)
	res, err = Synthesize(context.Background(), controller.DQBF,
		Options{Seed: 7, numSamples: 8, treeMaxDepth: 1, VerifyWorkers: 2})
	if err != nil {
		t.Fatalf("%s does not synthesize: %v", controller.Name, err)
	}
	if res.Stats.RowRepairs == 0 {
		t.Fatalf("%s made no row repair: %+v", controller.Name, res.Stats)
	}

	instances := map[string]*dqbf.Instance{
		"four-block":    blockParityInstance(4, 4),
		"parity":        parityInstance(5),
		"paper":         paperExample(),
		"chain":         plantedChainInstance(3, 4, 5),
		controller.Name: controller.DQBF,
	}
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for name, in := range instances {
		opts := func(w int) Options {
			return Options{Seed: 7, numSamples: 8, treeMaxDepth: 1, VerifyWorkers: w}
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
