package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/oracle"
	"repro/internal/sat"
)

// errInvalidVector marks an engine-produced vector that failed the service's
// independent verification — an engine correctness bug, classified as
// backend.ErrInternal so callers see a taxonomy class, never a raw string.
var errInvalidVector = fmt.Errorf("%w: synthesized vector failed verification", backend.ErrInternal)

// verifier independently checks every vector the engines return before it
// leaves the service, on warm, fingerprint-keyed oracle.Pools: the expensive
// part of the check E = ¬ϕ(X,Y) ∧ (Y ↔ f(X)) is loading ¬ϕ, which depends
// only on the instance — so repeat and near-repeat traffic (the common case
// for a long-running service) reuses a solver that already holds ¬ϕ and pays
// only for the per-response function encoding, added and released as one
// clause group.
type verifier struct {
	poolSize int   // solvers per formula entry
	maxUses  int   // verifications per solver before retirement
	budget   int64 // per-verification conflict budget
	capacity int   // max distinct formulas kept warm

	mu      sync.Mutex
	entries map[string]*verifyEntry
	tick    int64 // LRU clock
	hits    int64
	misses  int64
	// Solver lifecycle totals over the verifier's lifetime, counted here
	// rather than read from the pools, so they survive LRU drops: built
	// solvers, evicted ones (panics and retirements), and retirements alone.
	built   int64
	evicted int64
	retired int64
}

type verifyEntry struct {
	pool     *oracle.Pool
	lastUsed int64 // verifier.tick at last checkout
}

func newVerifier(capacity, poolSize, maxUses int, budget int64) *verifier {
	if capacity < 1 {
		capacity = 1
	}
	if poolSize < 1 {
		poolSize = 1
	}
	if maxUses < 1 {
		maxUses = 1
	}
	return &verifier{
		capacity: capacity,
		poolSize: poolSize,
		maxUses:  maxUses,
		budget:   budget,
		entries:  make(map[string]*verifyEntry),
	}
}

// Fingerprint returns the content address of an instance: the SHA-256 of its
// canonical DQDIMACS rendering. Two requests carrying the same formula (in
// any textual variation that parses to the same instance) share one warm
// verification pool.
func Fingerprint(in *dqbf.Instance) string {
	h := sha256.New()
	// WriteDQDIMACS on a hash never fails; the canonical rendering makes the
	// fingerprint independent of comment lines and whitespace in the upload.
	_ = dqbf.WriteDQDIMACS(h, in)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// entryFor returns (building if needed) the warm pool for the fingerprint,
// evicting the least-recently-used formula beyond capacity.
func (v *verifier) entryFor(fp string, in *dqbf.Instance) *verifyEntry {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tick++
	if e, ok := v.entries[fp]; ok {
		e.lastUsed = v.tick
		v.hits++
		return e
	}
	v.misses++
	// Encode ¬ϕ(X,Y) once per formula; every pooled solver loads the same
	// encoding. The encoding is captured by the build closure, so all
	// poolSize solvers are identically built (the oracle.Pool contract).
	base := cnf.New(in.Matrix.NumVars)
	in.Matrix.NegationInto(base)
	e := &verifyEntry{lastUsed: v.tick}
	e.pool = oracle.NewPool(v.poolSize, func() *sat.Solver {
		v.mu.Lock()
		v.built++
		v.mu.Unlock()
		s := sat.New()
		s.AddFormula(base)
		return s
	})
	v.entries[fp] = e
	for len(v.entries) > v.capacity {
		lruKey, lruTick := "", v.tick+1
		for k, cand := range v.entries {
			if cand.lastUsed < lruTick {
				lruKey, lruTick = k, cand.lastUsed
			}
		}
		delete(v.entries, lruKey) // solvers are garbage collected
	}
	return e
}

// verify checks vec against in on a warm pooled solver. It returns nil when
// the vector is proved valid, errInvalidVector (an ErrInternal) when the
// solver finds a counterexample, and a budget/cancellation-classified error
// when the check is inconclusive. A panic inside the solve evicts the pooled
// solver and resumes for the caller's per-request recover.
func (v *verifier) verify(ctx context.Context, fp string, in *dqbf.Instance, vec *dqbf.FuncVector) error {
	for _, y := range in.Exist {
		if _, ok := vec.Funcs[y]; !ok {
			return fmt.Errorf("%w: vector missing function for existential %d", backend.ErrInternal, y)
		}
	}
	if viol := vec.DependencyViolations(in); len(viol) > 0 {
		return fmt.Errorf("%w: vector has dependency violations: %v", backend.ErrInternal, viol)
	}
	e := v.entryFor(fp, in)
	s := e.pool.Get()
	healthy := false
	defer func() {
		if !healthy {
			v.evict(e, s, false)
			return
		}
		if s.Stats().Solves >= int64(v.maxUses) {
			// Retire the solver: every verification allocates fresh Tseitin
			// and activation variables, so a long-lived solver's tables grow
			// without bound. Each verification is exactly one Solve, so the
			// solver's own count caps that at maxUses verifications' worth.
			v.evict(e, s, true)
			return
		}
		e.pool.Put(s)
	}()

	// Per-response encoding: Y ↔ f(X), Tseitin definitions included, all in
	// one releasable clause group so the solver returns to bare ¬ϕ after the
	// check. Variables allocate above everything the solver has ever seen.
	ef := cnf.New(s.NumVars())
	for _, y := range in.Exist {
		out := vec.B.ToCNF(vec.Funcs[y], ef, boolfunc.CNFOptions{})
		ef.AddEquivLit(cnf.PosLit(y), out)
	}
	gid := s.AddClauseGroup(ef.Clauses)
	defer s.ReleaseGroup(gid)
	s.SetContext(ctx)
	s.SetConflictBudget(v.budget)
	st := s.Solve()
	healthy = true
	switch st {
	case sat.Unsat:
		return nil
	case sat.Sat:
		return errInvalidVector
	default:
		if cause := s.StopCtxErr(); cause != nil {
			return fmt.Errorf("%w: verification interrupted: %w", backend.ErrCanceled, cause)
		}
		return fmt.Errorf("%w: verification conflict budget exhausted", backend.ErrBudget)
	}
}

// evict discards s from e's pool and counts it; retire marks a planned
// max-use retirement rather than a panic eviction.
func (v *verifier) evict(e *verifyEntry, s *sat.Solver, retire bool) {
	e.pool.Evict(s)
	v.mu.Lock()
	v.evicted++
	if retire {
		v.retired++
	}
	v.mu.Unlock()
}

// VerifyStats is the verifier's /statz block.
type VerifyStats struct {
	// WarmFormulas is how many distinct formulas currently have warm pools.
	WarmFormulas int `json:"warm_formulas"`
	// Hits/Misses count fingerprint lookups that found / had to build a pool.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// SolversBuilt and SolversEvicted count every verification solver
	// built and evicted over the server's lifetime, including those of
	// formulas the LRU has since dropped (evictions include both panic
	// evictions and max-use retirements); Retired counts only the planned
	// retirements.
	SolversBuilt   int64 `json:"solvers_built"`
	SolversEvicted int64 `json:"solvers_evicted"`
	Retired        int64 `json:"retired"`
}

func (v *verifier) stats() VerifyStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return VerifyStats{
		WarmFormulas:   len(v.entries),
		Hits:           v.hits,
		Misses:         v.misses,
		SolversBuilt:   v.built,
		SolversEvicted: v.evicted,
		Retired:        v.retired,
	}
}
