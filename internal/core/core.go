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
//	preprocess    unate detection: a syntactic pass over ϕ's literal
//	              occurrences, then semantic checks for the existentials it
//	              left, run through oracle.ForEach (Options.PreprocWorkers)
//	              over an oracle.Pool of ϕ-loaded solvers: the positive
//	              check asks, for each clause holding ¬y, whether a model of
//	              ϕ makes ¬y its only true literal (the negative check, the
//	              same for y), each an assumption query on ϕ alone; a
//	              constant of ϕ is unate, so the checks find every one.
//	              Then, serially and with no SAT call, gate definitions: an
//	              existential that ϕ's clauses over it and at most three
//	              other variables define gets that gate as its function, and
//	              like the unates it is skipped by learning and repair;
//	sample        constrained sampling of ϕ for the training set Σ,
//	              packed once into one bitset column per variable of X ∪ Y;
//	              the sampler is handed preprocessing's unate constants and
//	              gate definitions, so its support is X plus the
//	              existentials left open, and a support of at most 64
//	              variables is sampled with no oracle call; skipped, with no
//	              oracle call, when preprocessing fixed every existential,
//	              since only learning reads Σ;
//	learn         per-existential decision trees respecting the Henkin
//	              dependencies (Algorithm 2), one at a time in declaration
//	              order, each against the current dependency matrix, learned
//	              by dtree straight from the packed columns of its features
//	              and its label;
//	verify-repair the counterexample-guided loop (Algorithms 1 and 3):
//	              verify the candidate vector, localize faults with MaxSAT,
//	              repair with UNSAT-core-guided strengthening/weakening, or,
//	              when Gk is satisfiable but the candidate's output is
//	              wrong, patch it from the core of Gk with all of X pinned
//	              (a row σ[Hk] patched both ways stops the run as
//	              ErrIncomplete).
//
// Each executed phase reports a backend.PhaseStat — name, wall-clock
// duration, SAT/MaxSAT oracle calls — in Stats.Phases, in execution order.
// Preprocessing is the one parallel phase. Its unate checks run through
// oracle.ForEach, which runs inline with one worker, and it is
// deterministic: for a fixed seed the fixed set, the synthesized constants,
// and the final functions are bit-identical for every PreprocWorkers count,
// because workers only write their own item's result and the merge happens
// serially in declaration order. Learning and verify-repair are serial
// loops, and every query of the repair loop runs on one of the persistent
// solvers below, so their UNSAT cores and models are a function of the
// query stream alone. A panic on a preprocessing worker, or in the learn
// loop, fails the run with ErrInternal.
//
// # Persistent oracles
//
// Every SAT-flavoured oracle in the verify–repair loop is incremental and
// lives for the whole synthesis run:
//
//   - phiSolver holds ϕ and answers all assumption queries (counterexample
//     extension, the Gk repair queries with their UNSAT cores, and the row
//     repair's Gk with all of X pinned).
//
//   - The preprocessing phase checks out ϕ-loaded solvers of its own from
//     an oracle.Pool sized to its worker count, so a thousand unate queries
//     cost at most PreprocWorkers loads of ϕ (Stats.PreprocSolversBuilt).
//     They leave phiSolver alone: repair reads its learnt clauses and saved
//     phases, so a query there would move certificates.
//
//   - verifySolver holds ¬ϕ(X,Y′) permanently, the Tseitin definitions of
//     every candidate-DAG node encoded exactly once through a persistent
//     node → literal cache (a learned candidate is one Ite per tree node,
//     computing the disjunction of 1-paths, so its first encoding costs at
//     most four clauses per node), and per candidate a tiny releasable clause
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
//   - The sampler needs no solver when ϕ's independent support after
//     preprocessing, X plus the existentials left open, has at most 64
//     variables, and X ∪ Y are ϕ's variables 1..NumVars (Validate admits no
//     other variable into a clause). The sample phase hands it the unates'
//     constants and the gate definitions, ordered so that every input is
//     computed before it is read, and the sampler evaluates ϕ on 64
//     support assignments per word. With at most 16 support variables it
//     scans every assignment: with at most 400 models, those models are
//     Σ; with more, Σ holds 400 distinct assignments of X, chosen uniformly
//     among those with a completion, each with one completion chosen
//     uniformly. With 17–64 it takes rows, assignments of X, uniformly
//     without replacement (every row when there are at most 400) and
//     completes each in one word: with at most six open existentials the
//     word holds all of the row's completions, and with more, 64 random
//     ones, the first that satisfies ϕ completing the row. Either way Σ
//     holds one sample per row, which is what a sat2dqbf run of 6–7
//     universals learns from. Choosing among X rather than among models
//     keeps rows whose every completion is a model (a controller's escape
//     rows) from crowding out the rows that constrain the candidates. A
//     larger support, or one whose first rows are mostly closed or whose
//     row rejection cannot complete, is drawn from one solver without
//     rebuilding it, exactly as before: draws add no blocking clauses, a
//     hash set of projected samples drops repeats, and only a small
//     projected space, whose draws keep repeating, is finished with
//     blocking clauses. The phase's progress line names the path that ran.
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
