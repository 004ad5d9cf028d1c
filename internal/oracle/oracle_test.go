package oracle

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// chainFormula builds a small satisfiable implication chain v1 → v2 → … →
// vn so pooled solvers have real work to answer under assumptions.
func chainFormula(n int) *cnf.Formula {
	f := cnf.New(n)
	for v := 1; v < n; v++ {
		f.AddClause(cnf.NegLit(cnf.Var(v)), cnf.PosLit(cnf.Var(v+1)))
	}
	return f
}

func newBuild(builds *atomic.Int64) func() *sat.Solver {
	f := chainFormula(16)
	return func() *sat.Solver {
		builds.Add(1)
		s := sat.New()
		s.AddFormula(f)
		return s
	}
}

// builtSlots returns how many solvers p accounts to build slots: constructed
// minus evicted.
func (p *Pool) builtSlots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.built
}

func TestPoolBuildsLazilyAndReuses(t *testing.T) {
	var builds atomic.Int64
	p := NewPool(3, newBuild(&builds))
	if p.size != 3 {
		t.Fatalf("size: %d", p.size)
	}
	if builds.Load() != 0 {
		t.Fatal("pool built a solver before first Get")
	}
	s := p.Get()
	if builds.Load() != 1 || p.builtSlots() != 1 {
		t.Fatalf("first Get built %d solvers (%d slots built), want 1", builds.Load(), p.builtSlots())
	}
	p.Put(s)
	for i := 0; i < 10; i++ {
		s := p.Get()
		if st := s.SolveAssume([]cnf.Lit{cnf.PosLit(1)}); st != sat.Sat {
			t.Fatalf("pooled solver answered %v", st)
		}
		p.Put(s)
	}
	if builds.Load() != 1 {
		t.Fatalf("serial reuse built %d solvers, want 1", builds.Load())
	}
}

func TestPoolSizeClamped(t *testing.T) {
	var builds atomic.Int64
	p := NewPool(0, newBuild(&builds))
	if p.size != 1 {
		t.Fatalf("size: %d, want clamp to 1", p.size)
	}
	s := p.Get()
	done := make(chan *sat.Solver)
	go func() { done <- p.Get() }()
	p.Put(s)
	p.Put(<-done)
	if builds.Load() != 1 {
		t.Fatalf("size-1 pool built %d solvers", builds.Load())
	}
}

// TestPoolConcurrentCheckout hammers the pool from many goroutines (run
// under -race by tier-1 verify): at most size solvers are ever built, every
// query answers correctly, and no solver is checked out twice at once.
func TestPoolConcurrentCheckout(t *testing.T) {
	var builds atomic.Int64
	const size = 4
	p := NewPool(size, newBuild(&builds))
	var inUse sync.Map // *sat.Solver → struct{}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := p.Get()
				if _, loaded := inUse.LoadOrStore(s, struct{}{}); loaded {
					t.Errorf("solver checked out twice concurrently")
					p.Put(s)
					return
				}
				// UNSAT query: v1 forces v16 along the chain.
				st := s.SolveAssume([]cnf.Lit{cnf.PosLit(1), cnf.NegLit(16)})
				if st != sat.Unsat {
					t.Errorf("worker %d: chain query answered %v, want Unsat", w, st)
				}
				inUse.Delete(s)
				p.Put(s)
			}
		}(w)
	}
	wg.Wait()
	if b := builds.Load(); b > size {
		t.Fatalf("built %d solvers, pool size %d", b, size)
	}
	if n := p.builtSlots(); n > size {
		t.Fatalf("%d slots built, pool size %d", n, size)
	}
}

// TestPoolWithEvictsPanickingSolver pins the checkout the service's
// verifier makes with Get, Put and Evict, which keeps a panicking query
// from poisoning a pool: a deferred call Puts the solver back when the
// query completed and Evicts it otherwise. The panic propagates to the
// caller, the solver it hit leaves the pool, and the reopened build slot
// serves a fresh solver.
func TestPoolWithEvictsPanickingSolver(t *testing.T) {
	var builds atomic.Int64
	p := NewPool(1, newBuild(&builds))
	query := func(fn func(*sat.Solver)) {
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
	var broken *sat.Solver
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic inside the query did not propagate to the caller")
			}
		}()
		query(func(s *sat.Solver) {
			broken = s
			s.SetSolveHook(func(int64) { panic("injected solve panic") })
			s.Solve()
		})
	}()
	if n := p.builtSlots(); n != 0 {
		t.Fatalf("panicking solver not evicted: %d still built", n)
	}
	query(func(s *sat.Solver) {
		if s == broken {
			t.Fatal("evicted solver handed out again")
		}
		if st := s.SolveAssume([]cnf.Lit{cnf.PosLit(1)}); st != sat.Sat {
			t.Fatalf("replacement solver broken: %v", st)
		}
	})
	if n := p.builtSlots(); n != 1 || builds.Load() != 2 {
		t.Fatalf("after eviction and rebuild: %d slots built, %d builds, want 1 and 2", n, builds.Load())
	}
}
