// Package faultinject is a deterministic fault-injection harness for the
// dispatch resilience layer: it wraps a backend.Backend so that a chosen
// invocation fails in a chosen way — a panic, a budget exhaustion, a forced
// give-up, a cancellation, or a latency stall.
//
// A Plan is built from a seed and a list of Rules; each rule fires exactly
// once, at the rule's 1-based invocation index (Rule.Nth) counted across
// everything the plan wraps, or — when Nth is 0 — at a small index derived
// deterministically from the seed and the rule's position. The same seed,
// rules, and (serial) workload therefore produce the same faults on every
// run; under concurrent workloads the global invocation counter still fires
// each rule exactly once, but which worker observes it depends on
// scheduling.
//
// Plan.Backend injects at the dispatch boundary, where Protect /
// SafeSynthesize and the portfolio/fallback/retry compositors must contain
// the damage (internal/backend). This package's fault matrix drives it
// through every dispatch shape, and cmd/benchrunner and cmd/manthand arm it
// through their -faults flags (see Parse for the spec grammar). Panics
// below the dispatch boundary are covered where they are contained: inside
// a manthan3 run in internal/core, through a test-only sat.SolveHook whose
// panic the engine's one deferred recover must turn into ErrInternal, and
// under an oracle.Pool checkout in internal/oracle, where Evict must
// replace the panicking solver.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package faultinject

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
)

// Kind names one injectable fault.
type Kind string

// The fault kinds. Plan.Backend surfaces them as, respectively: a recovered
// panic (backend.ErrInternal), backend.ErrBudget, backend.ErrIncomplete, a
// run under an already-canceled context (backend.ErrCanceled), and a
// delayed but otherwise untouched run.
const (
	Panic   Kind = "panic"
	Budget  Kind = "budget"
	Unknown Kind = "unknown"
	Cancel  Kind = "cancel"
	Stall   Kind = "stall"
)

// DefaultStall is the stall duration of a "stall" rule that does not name
// one.
const DefaultStall = 10 * time.Millisecond

// Rule is one fault to inject.
type Rule struct {
	// Kind is the fault to inject.
	Kind Kind
	// Nth is the 1-based invocation index (counted plan-wide) at which the
	// rule fires, once; 0 means a small index (1..8) derived from the plan
	// seed and the rule's position. If two rules resolve to the same index,
	// only the first fires.
	Nth int64
	// Stall is the sleep duration of a Stall rule (DefaultStall when 0).
	Stall time.Duration
}

// String renders the rule in Parse's grammar, e.g. "stall(10ms)@3".
func (r Rule) String() string {
	kind := string(r.Kind)
	if r.Kind == Stall && r.Stall > 0 {
		kind = fmt.Sprintf("stall(%s)", r.Stall)
	}
	if r.Nth > 0 {
		return fmt.Sprintf("%s@%d", kind, r.Nth)
	}
	return kind
}

// Parse parses a fault spec: comma-separated rules, each "kind" or
// "kind@n" with kind one of panic, budget, unknown, cancel, stall, or
// stall(duration). Examples: "panic@1", "budget@2,stall(5ms)@4", "cancel".
// An omitted @n leaves Rule.Nth at 0 (seed-derived index).
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, nthStr, hasNth := strings.Cut(part, "@")
		var r Rule
		if hasNth {
			n, err := strconv.ParseInt(strings.TrimSpace(nthStr), 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: bad index in rule %q (want kind@n with n >= 1)", part)
			}
			r.Nth = n
		}
		kindStr = strings.TrimSpace(kindStr)
		if rest, ok := strings.CutPrefix(kindStr, "stall("); ok {
			durStr, ok := strings.CutSuffix(rest, ")")
			if !ok {
				return nil, fmt.Errorf("faultinject: bad stall rule %q (want \"stall(duration)\")", part)
			}
			d, err := time.ParseDuration(strings.TrimSpace(durStr))
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faultinject: bad stall duration in rule %q", part)
			}
			r.Kind, r.Stall = Stall, d
		} else {
			switch k := Kind(kindStr); k {
			case Panic, Budget, Unknown, Cancel, Stall:
				r.Kind = k
			default:
				return nil, fmt.Errorf("faultinject: unknown fault kind %q in rule %q", kindStr, part)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault spec")
	}
	return rules, nil
}

// Plan is an armed set of fault rules sharing one invocation counter.
// A Plan is safe for concurrent use; arm it freshly per experiment —
// fired rules stay fired.
type Plan struct {
	seed  int64
	rules []armed
	calls atomic.Int64
}

type armed struct {
	rule  Rule
	nth   int64 // resolved firing index
	fired atomic.Bool
}

// New arms a plan. Rules with Nth == 0 get a firing index in 1..8 derived
// deterministically from seed and the rule's position.
func New(seed int64, rules ...Rule) *Plan {
	p := &Plan{seed: seed, rules: make([]armed, len(rules))}
	for i, r := range rules {
		nth := r.Nth
		if nth <= 0 {
			nth = derivedNth(seed, i)
		}
		p.rules[i].rule = r
		p.rules[i].nth = nth
	}
	return p
}

// String lists the armed rules with their resolved firing indices.
func (p *Plan) String() string {
	parts := make([]string, len(p.rules))
	for i := range p.rules {
		r := p.rules[i].rule
		r.Nth = p.rules[i].nth
		parts[i] = r.String()
	}
	return fmt.Sprintf("faultplan(seed=%d: %s)", p.seed, strings.Join(parts, ","))
}

// Fired reports how many rules have fired.
func (p *Plan) Fired() int {
	n := 0
	for i := range p.rules {
		if p.rules[i].fired.Load() {
			n++
		}
	}
	return n
}

// derivedNth maps (seed, rule position) to a firing index in 1..8 via a
// splitmix64 step — small enough that the rule actually fires in short
// workloads, spread enough that distinct seeds exercise distinct call
// sites.
func derivedNth(seed int64, idx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%8) + 1
}

// fire advances the invocation counter and returns the rule (if any) firing
// at this invocation, with the invocation index.
func (p *Plan) fire() (*Rule, int64) {
	n := p.calls.Add(1)
	for i := range p.rules {
		a := &p.rules[i]
		if a.nth == n && a.fired.CompareAndSwap(false, true) {
			return &a.rule, n
		}
	}
	return nil, n
}

// Backend wraps b so every Synthesize call counts against the plan and the
// firing rule's fault is injected at the dispatch boundary. The wrapper
// panics raw for Panic rules — containment is exactly what is under test,
// so the wrapped backend must sit inside backend.Protect (backend.Resolve
// output already is; re-wrap with backend.Protect otherwise).
func (p *Plan) Backend(b backend.Backend) backend.Backend {
	return &faulty{plan: p, base: b}
}

type faulty struct {
	plan *Plan
	base backend.Backend
}

func (f *faulty) Name() string { return f.base.Name() }

func (f *faulty) Synthesize(ctx context.Context, in *dqbf.Instance, opts backend.Options) (*backend.Result, error) {
	r, n := f.plan.fire()
	if r == nil {
		return f.base.Synthesize(ctx, in, opts)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	switch r.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic at call %d", n))
	case Budget:
		return nil, fmt.Errorf("%w: faultinject: injected budget exhaustion at call %d", backend.ErrBudget, n)
	case Unknown:
		return nil, fmt.Errorf("%w: faultinject: injected unknown at call %d", backend.ErrIncomplete, n)
	case Cancel:
		// Run the engine for real, under a context that is already canceled:
		// what is under test is the engine's own cancellation path, not the
		// wrapper's ability to fabricate an error.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		return f.base.Synthesize(cctx, in, opts)
	case Stall:
		d := r.Stall
		if d <= 0 {
			d = DefaultStall
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		return f.base.Synthesize(ctx, in, opts)
	}
	return f.base.Synthesize(ctx, in, opts)
}
