// Package backend defines the pluggable synthesis-backend abstraction shared
// by every engine entry point in the repository, plus the resilience layer —
// panic isolation, fallback chains, budget-escalating retries — that keeps
// one misbehaving engine from taking down a dispatch.
//
// A Backend wraps one Henkin-function synthesizer behind a uniform,
// context-aware interface. Engines register themselves (in their package
// init) into a process-global registry under a stable name — "manthan3",
// "expand", "cegar", "pedant" — and cmd/manthan3, cmd/benchrunner, and
// internal/bench all dispatch through Resolve instead of maintaining their
// own engine switches. Adding an engine is therefore
// one Register call; every front end picks it up automatically.
//
// # Spec grammar
//
// Resolve parses one uniform engine-spec grammar shared by every front end
// (-engine on cmd/manthan3, -engines on cmd/benchrunner, internal/bench):
//
//	name                 plain registry lookup ("manthan3")
//	name@seed            seed pinned per run ("manthan3@7"); the pinned
//	                     backend's Name() is the full spec, so one engine can
//	                     race itself under distinct seeds
//	portfolio:a+b+c      race the members concurrently; first DEFINITIVE
//	                     answer (vector or False proof) wins, losers are
//	                     canceled (see Portfolio)
//	fallback:a>b>c       try the members sequentially; advance to the next
//	                     only on a NON-definitive failure, under the
//	                     remaining context deadline (see Fallback)
//	retry(k):spec        run spec, re-running up to k extra times on
//	                     ErrBudget with an escalating conflict budget and a
//	                     perturbed seed (see Retry)
//
// Specs compose: portfolio and fallback members may carry @seed pins or
// retry(k): prefixes, and retry can wrap a portfolio or fallback chain
// ("retry(2):fallback:manthan3>pedant"). Portfolios and fallbacks do not
// nest inside themselves or each other — the flat forms cover the useful
// shapes and keep failure semantics legible.
//
// # Error taxonomy
//
// Registered backends map their engine-specific sentinel errors onto the
// package's shared ones, so callers classify outcomes with errors.Is without
// importing any engine:
//
//	sentinel        meaning                                      definitive?
//	ErrFalse        the instance is proved False                 yes
//	ErrIncomplete   documented incompleteness; engine gave up    no
//	ErrTooLarge     instance exceeds engine size limits          no
//	ErrUnsupported  instance shape outside the engine fragment   no
//	ErrBudget       time/conflict/iteration budget expired       no
//	ErrCanceled     caller canceled the context mid-run          no
//	ErrInternal     the engine panicked (isolated by recover)    no
//
// "Definitive" outcomes — a synthesized vector or ErrFalse — answer the
// instance; everything else is a failure to answer, which fallback chains
// advance past, retries re-attempt (ErrBudget only), and portfolios never
// let win. The original engine error (and, for ErrInternal, the panic value
// and stack) stays in the wrapped chain.
//
// # Panic isolation
//
// Resolve wraps every backend it returns in Protect, and Portfolio,
// Fallback, and Retry guard each member invocation the same way: a panic
// inside an engine is recovered and mapped to ErrInternal instead of
// crashing the process, so a broken engine degrades the dispatch (the
// portfolio loses a member, the fallback advances) rather than killing it.
// Engines with internal worker pools additionally recover inside each
// worker goroutine — a recover at the dispatch boundary cannot catch a
// panic on another goroutine.
//
// # Cancellation
//
// Synthesize must honor ctx promptly: the context is threaded through every
// engine into the SAT-solver search loops, so cancellation (or a deadline)
// interrupts a run within milliseconds. This is what makes Portfolio viable:
// it races k backends under one derived context, returns the first
// definitive answer, and cancels the losers — see Portfolio for the exact
// semantics.
//
// # Dispatch telemetry
//
// Result.Attempts records one AttemptStat per engine invocation the
// dispatch made — which engine, how it ended (Classify), how long it took,
// and which retry round it was — so graceful degradation is measured, not
// assumed: internal/bench carries the attempts into results_raw.csv and the
// markdown report renders a dispatch-resilience table from them.
package backend

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/dqbf"
)

// Shared sentinel errors; see the package comment for the taxonomy.
var (
	ErrFalse       = errors.New("backend: instance is False")
	ErrIncomplete  = errors.New("backend: engine gave up (documented incompleteness)")
	ErrTooLarge    = errors.New("backend: instance exceeds engine size limits")
	ErrUnsupported = errors.New("backend: instance shape not supported by this engine")
	ErrBudget      = errors.New("backend: budget exhausted")
	ErrCanceled    = errors.New("backend: synthesis canceled")
	// ErrInternal means the engine panicked; the recover that isolated it
	// wraps the panic value and goroutine stack into the chain. It is a
	// non-definitive failure: fallback chains advance past it and portfolios
	// never let it win.
	ErrInternal = errors.New("backend: engine internal error (panic)")
)

// An ErrorClass pairs one engine-specific sentinel error with the shared
// taxonomy sentinel it maps onto.
type ErrorClass struct {
	Engine error
	Shared error
}

// MapEngineError wraps err with the Shared sentinel of the first matching
// ErrorClass, preserving the original chain; err is returned unchanged when
// nothing matches. Registration adapters use it to translate their engine's
// sentinels into the shared taxonomy — order the classes so cancellation
// (context.Canceled, or an engine's own canceled sentinel) is checked before
// the budget class, since engines wrap ctx errors inside their budget
// errors.
func MapEngineError(err error, classes ...ErrorClass) error {
	for _, c := range classes {
		if errors.Is(err, c.Engine) {
			return fmt.Errorf("%w: %w", c.Shared, err)
		}
	}
	return err
}

// Options tunes a backend run. The zero value gives usable defaults. Every
// engine-internal SAT solver runs the one search configuration sat.New
// builds; a run sets only its effort (SATConflictBudget), its seed, and its
// worker counts.
type Options struct {
	// Seed drives engine randomization (sampling, solver tie-breaking).
	Seed int64
	// Workers bounds engine-internal parallelism where an engine has any
	// (currently the manthan3 learn phase); 0 means NumCPU.
	Workers int
	// PreprocWorkers bounds the manthan3 preprocessing worker pool (the
	// per-existential constant and unate oracle queries); 0 means NumCPU.
	// Results are bit-identical for every worker count.
	PreprocWorkers int
	// VerifyWorkers bounds the manthan3 repair-phase candidate-verification
	// pool (independent candidates of one repair round probed concurrently
	// on a fixed-slot solver pool); 0 means NumCPU. Results are
	// bit-identical for every worker count.
	VerifyWorkers int
	// SATConflictBudget bounds each engine-internal SAT oracle call in
	// conflicts; 0 means the engine's own default (DefaultSATConflictBudget
	// for the engines that bound per-call effort). Retry escalates it
	// between attempts so a budget-limited solve gets genuinely more search
	// on the re-run, not just another roll of the dice.
	SATConflictBudget int64
	// Logf, when non-nil, receives progress trace lines from engines that
	// support tracing; nil disables tracing.
	Logf func(format string, args ...any)
}

// DefaultSATConflictBudget is the per-oracle-call conflict budget the
// budget-bounded engines (manthan3, cegar, pedant) fall back to when
// Options.SATConflictBudget is zero. Retry's escalation schedule starts
// from it.
const DefaultSATConflictBudget = 500000

// Result is a successful synthesis outcome.
type Result struct {
	// Vector holds one function per existential, valid for the instance.
	Vector *dqbf.FuncVector
	// Stats is a one-line, engine-specific statistics summary for display.
	Stats string
	// Phases is the run's per-phase telemetry in execution order. Every
	// registered backend fills it on success (the phase-telemetry contract:
	// one entry per executed phase, non-zero durations, canonical names —
	// see the Phase* constants); the portfolio reports the winner's phases.
	Phases []PhaseStat
	// Attempts is the dispatch telemetry: one entry per engine invocation
	// made on the way to this result, in invocation order — every portfolio
	// member, every fallback link tried, every retry round. A bare engine
	// run has none (the dispatch made no resilience decisions). See
	// AttemptStat.
	Attempts []AttemptStat
}

// Backend is one registered Henkin-function synthesis engine.
type Backend interface {
	// Name is the registry key, stable across runs.
	Name() string
	// Synthesize solves the instance or proves it False (ErrFalse). It must
	// return promptly when ctx is canceled or reaches its deadline.
	Synthesize(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error)
}

// funcBackend adapts a plain function to the Backend interface.
type funcBackend struct {
	name string
	fn   func(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error)
}

func (b funcBackend) Name() string { return b.name }

func (b funcBackend) Synthesize(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return b.fn(ctx, in, opts)
}

// NewFunc wraps fn as a Backend with the given registry name.
func NewFunc(name string, fn func(ctx context.Context, in *dqbf.Instance, opts Options) (*Result, error)) Backend {
	return funcBackend{name: name, fn: fn}
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Backend)
)

// Register makes b available under b.Name(). Engines call it from package
// init; registering a nil backend, an empty name, or two backends under one
// name is a programming error and panics with a message naming the
// conflict — a silent overwrite would be a latent init-order bug, with the
// surviving engine decided by package import order.
func Register(b Backend) {
	if b == nil {
		panic("backend: Register(nil)")
	}
	regMu.Lock()
	defer regMu.Unlock()
	name := b.Name()
	if name == "" {
		panic("backend: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: Register called twice for %q", name))
	}
	registry[name] = b
}

// Get returns the backend registered under name, or an error listing the
// available names.
func Get(name string) (Backend, error) {
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
