// Package oracle holds the engines' two concurrency helpers: ForEach, the
// one panic-isolated worker loop, and Pool, a checkout pool of
// identically-built SAT solvers.
//
// ForEach runs independent per-item work — the manthan3 preprocessing
// phase's unate checks, and its learn loop inline on one worker — on a
// bounded number of goroutines, inline when there is one worker. It claims
// items in index order, recovers a worker's panic as an error wrapping
// ErrPanic, and returns the lowest-indexed failure, so callers that write
// results at their item's index and merge them serially get the same
// answer for every worker count.
//
// A sat.Solver is fast but strictly single-goroutine: loading a formula is
// the expensive part, and a loaded solver answers many incremental
// assumption queries cheaply. When a phase has per-item queries that are
// independent — the manthan3 preprocessing phase issues per-existential
// unate checks against one doubled ϕ with equality selectors — the natural
// shape is a fixed pool of loaded solvers, each built once and then checked
// out by whichever worker needs an oracle next.
//
// Pool builds solvers lazily through the constructor it is given: the first
// Size checkouts each construct one solver, later checkouts reuse returned
// ones. Since every pooled solver is built by the same constructor, answers
// are semantically interchangeable — which solver a worker draws never
// affects results, only the learnt-clause warmth it happens to inherit.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package oracle

import (
	"sync"

	"repro/internal/sat"
)

// Pool is a fixed-capacity checkout pool of SAT solvers sharing one
// constructor. Get blocks while all built solvers are checked out and the
// build quota is exhausted; Put returns a solver for reuse. The zero value
// is not usable; use NewPool.
type Pool struct {
	build func() *sat.Solver

	mu      sync.Mutex
	idle    []*sat.Solver
	built   int
	size    int
	waiting chan struct{} // closed-and-replaced broadcast on Put
}

// NewPool returns a pool that owns up to size solvers, each produced by
// build on first demand. size is clamped to at least 1. build must return a
// fully loaded, ready-to-solve solver; it may be called from any goroutine
// that calls Get, but never concurrently with itself for the same slot
// being constructed twice — each of the size slots is built exactly once.
func NewPool(size int, build func() *sat.Solver) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{build: build, size: size, waiting: make(chan struct{})}
}

// Get checks out a solver: an idle one when available, a freshly built one
// while fewer than Size have been constructed, and otherwise it blocks
// until a Put. Callers must return the solver with Put (typically
// deferred).
func (p *Pool) Get() *sat.Solver {
	for {
		p.mu.Lock()
		if n := len(p.idle); n > 0 {
			s := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			return s
		}
		if p.built < p.size {
			p.built++
			p.mu.Unlock()
			// Build outside the lock: other workers keep checking out idle
			// solvers (or building their own slot) while this one loads.
			return p.build()
		}
		wait := p.waiting
		p.mu.Unlock()
		<-wait
	}
}

// Put returns a checked-out solver to the pool and wakes blocked Gets.
func (p *Pool) Put(s *sat.Solver) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.idle = append(p.idle, s)
	close(p.waiting)
	p.waiting = make(chan struct{})
	p.mu.Unlock()
}

// Evict discards a checked-out solver instead of returning it: its build
// slot reopens, so a later Get constructs a fresh replacement. Use it when
// the checkout ended abnormally — a panic mid-Solve leaves the solver's
// trail, watches, and arena in an arbitrary intermediate state, and handing
// that solver to the next worker would poison every answer it gives.
// Blocked Gets are woken so one of them can claim the reopened slot.
func (p *Pool) Evict(s *sat.Solver) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if p.built > 0 {
		p.built--
	}
	close(p.waiting)
	p.waiting = make(chan struct{})
	p.mu.Unlock()
}

// With checks out a solver, runs fn with it, and returns it to the pool —
// unless fn panics, in which case the solver is evicted (see Evict) and the
// panic resumes for the caller's recover. This is the checkout form every
// worker running under panic isolation should use: a broken query then
// costs one rebuilt solver, never a poisoned pool.
func (p *Pool) With(fn func(*sat.Solver)) {
	s := p.Get()
	healthy := false
	defer func() {
		if healthy {
			p.Put(s)
		} else {
			p.Evict(s)
		}
	}()
	fn(s)
	healthy = true
}

// Size returns the pool's capacity.
func (p *Pool) Size() int { return p.size }

// Built returns how many solvers are currently accounted to build slots
// (constructed minus evicted); it never exceeds Size, which is the pool's
// whole point — a thousand queries cost at most Size formula loads, plus
// one rebuild per eviction.
func (p *Pool) Built() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built
}
