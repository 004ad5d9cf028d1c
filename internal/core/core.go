// Package core implements Manthan3, the data-driven Henkin function
// synthesizer of "Synthesis with Explicit Dependencies" (DATE 2023).
//
// # Phase pipeline
//
// Given a DQBF ∀X ∃^{H1}y1 … ∃^{Hm}ym . ϕ(X,Y), Synthesize drives an
// explicit, ordered pipeline of phases over the Engine's shared state —
// the same decomposition the paper's evaluation (§6) uses to report where
// time goes:
//
//	preprocess    unate detection: a syntactic pass over the clauses,
//	              then one semantic check per existential it left, run
//	              through oracle.ForEach (Options.PreprocWorkers) over an
//	              oracle.Pool of solvers loaded with one selector-guarded
//	              two-copy encoding (ϕ ∧ ¬ϕ with primed existentials), so
//	              per-existential queries are assumption calls instead of
//	              fresh formula constructions; a constant of ϕ is unate, so
//	              the checks find every one. Then, serially and with no SAT
//	              call, gate definitions: an existential that ϕ's clauses
//	              over it and at most three other variables define gets that
//	              gate as its function, and like the unates it is skipped by
//	              learning and repair;
//	sample        constrained sampling of ϕ for the training set Σ,
//	              packed once into one bitset column per variable of X ∪ Y;
//	learn         per-existential decision trees respecting the Henkin
//	              dependencies (Algorithm 2), speculatively parallel
//	              (Options.LearnWorkers), each learned by dtree straight
//	              from the packed columns of its features and its label;
//	verify-repair the counterexample-guided loop (Algorithms 1 and 3):
//	              verify the candidate vector, localize faults with MaxSAT,
//	              repair with UNSAT-core-guided strengthening/weakening, or,
//	              when Gk is satisfiable and blame leaves nothing to repair,
//	              patch the candidate on the row σ[Hk] (a row patched both
//	              ways stops the run as ErrIncomplete).
//
// Each executed phase reports a backend.PhaseStat — name, wall-clock
// duration, SAT/MaxSAT oracle calls — in Stats.Phases, in execution order.
// The parallel phases all run through oracle.ForEach, which runs inline
// with one worker, and they are deterministic: for a fixed seed the fixed
// set, the synthesized constants, and the final functions are bit-identical
// for every PreprocWorkers/LearnWorkers/VerifyWorkers count, because
// workers only write their own item's result and all merging happens
// serially in declaration (or queue) order. The repair phase batches the Gk
// probes of provably independent queue members (no member may appear in a
// later member's Ŷ), and there answers alone are not enough: UNSAT cores
// and models depend on solver history. So probe i of a batch always runs on
// slot solver i mod repairSlots, per-slot probes stay in index order, and
// VerifyWorkers only sets how many slots run at once — every solver's query
// history is a function of the query stream alone, not of scheduling (see
// repair.go). A panic on any worker fails the run with ErrInternal.
//
// # Persistent oracles
//
// Every SAT-flavoured oracle in the verify–repair loop is incremental and
// lives for the whole synthesis run:
//
//   - phiSolver holds ϕ and answers all assumption queries (counterexample
//     extension, the Gk repair queries with their UNSAT cores).
//
//   - The preprocessing phase checks out solvers loaded with its unate
//     check formula from an oracle.Pool sized to its worker count, so a
//     thousand per-existential queries cost at most PreprocWorkers formula
//     loads (Stats.PreprocSolversBuilt).
//
//   - verifySolver holds ¬ϕ(X,Y′) permanently, the Tseitin definitions of
//     every candidate-DAG node encoded exactly once through a persistent
//     node → literal cache, and per candidate a tiny releasable clause
//     group tying Y′y to its function's root literal (sat.AddClauseGroup).
//     A repair round releases and re-encodes only the candidates that
//     changed. Its search branches on X alone (sat.RestrictBranching),
//     because X defines every other variable: Y′ through the equivalence
//     groups, the ¬ϕ clause selectors through their AND definitions, and
//     node outputs through their Tseitin definitions, while group
//     activation literals are always assumptions. Once X is assigned,
//     propagation assigns the rest, so the decision heap holds |X|
//     variables instead of the whole growing encoding, and the solver's
//     fallback for a broken promise never has work to do.
//
//   - FindCandi's MaxSAT localization runs through maxsat.Incremental
//     against a solver that loads ϕ once.
//
//   - The sampler draws all training assignments from one solver, blocking
//     each projected sample instead of rebuilding.
//
//   - Batched repair probes run on repairSlots ϕ-loaded slot solvers
//     (Stats.RepairSolversBuilt), each built on the first batch that
//     reaches its slot and kept for the rest of the run.
//
// The verify–repair loop itself is allocation-free in steady state: repair
// rounds run entirely on engine-owned scratch (assumption/queue/core/soft
// buffers, the counterexample σ, the evaluation assignment), candidate
// DAGs live in the boolfunc arena, and clause transfer into the verify
// solver goes through bulk watch-list reservation (sat.AddClauses).
// Stats.VerifySolversBuilt and Stats.CandidateReencodes expose the
// persistence invariants; BenchmarkVerifyRepair tracks the win and
// TestVerifyRepairAllocBudget pins the allocation budget.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package core
