// Package oracle holds Pool, a checkout pool of identically-built SAT
// solvers: the warm verifier pool of internal/service.
//
// A sat.Solver is fast but strictly single-goroutine: loading a formula is
// the expensive part, and a loaded solver answers many incremental queries
// cheaply. When concurrent workers ask independent queries of one formula —
// the service checks every response for an instance against the same ¬ϕ —
// the natural shape is a fixed pool of loaded solvers, each built once and
// then checked out by whichever worker needs an oracle next.
//
// Pool builds solvers lazily through the constructor it is given: the first
// size checkouts each construct one solver, later checkouts reuse returned
// ones, so a thousand queries cost at most size formula loads, plus one
// rebuild per eviction. Since every pooled solver is built by the same constructor, answers
// are semantically interchangeable — which solver a worker draws never
// affects results, only the learnt-clause warmth it happens to inherit.
//
// The package is under the determinism contract — results must be
// bit-identical across runs (see internal/analysis).
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
// while fewer than size have been constructed, and otherwise it blocks
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
// Blocked Gets are woken so one of them can claim the reopened slot. A
// checkout that may panic therefore returns its solver from a deferred call
// that Puts it when the work completed and Evicts it otherwise, as the
// service's verifier does: a broken query then costs one rebuilt solver,
// never a poisoned pool.
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
