package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dtree"
	"repro/internal/sampler"
)

// samplePhase is the data-generation phase (Algorithm 1 lines 1-2): it
// draws the training set Σ via constrained sampling of ϕ and parks it on
// the engine, packed column-major, for the learn phase. Σ serves only the
// trees of existentials preprocessing left open, so when it fixed every
// existential the phase draws nothing.
func (e *Engine) samplePhase() error {
	if e.allFixed() {
		e.tracef("sample: skipped, preprocessing fixed every existential")
		return nil
	}
	vars := make([]cnf.Var, 0, len(e.in.Univ)+len(e.in.Exist))
	vars = append(vars, e.in.Univ...)
	vars = append(vars, e.in.Exist...)
	samples, err := e.drawSamples(vars)
	if err != nil {
		return err
	}
	e.sigma = packSamples(vars, samples)
	e.stats.Samples = len(samples)
	return nil
}

// learnPhase is the candidate-learning phase (Algorithm 1 lines 3-7 and
// Algorithm 2) over the sample phase's packed Σ. It learns one tree per
// open existential, in declaration order, each against the current
// dependency matrix and merged right after it is learned: in the serial
// algorithm the tree learned for y1 bans y1 as a feature for later trees
// that would close a reference cycle. The context is checked before each
// tree.
func (e *Engine) learnPhase() error {
	// Lines 3-5: dependency constraints from strict subset relations — if
	// Hj ⊂ Hi then yi may depend on yj, so preemptively record yi ∈ d_j,
	// which bans yj from ever using yi as a feature.
	for _, yi := range e.in.Exist {
		for _, yj := range e.in.Exist {
			if yi == yj {
				continue
			}
			if e.in.ProperSubsetDeps(yj, yi) {
				e.deps[yj][yi] = true
			}
		}
	}

	// Line 7: learn a candidate per existential.
	for _, yi := range e.in.Exist {
		if e.fixed[yi] {
			continue // preprocessing already fixed this function
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		if err := e.learnCandidate(yi); err != nil {
			return err
		}
	}
	e.sigma = sampleMatrix{} // Σ is dead after learning; free it before verify-repair
	e.findOrder()
	e.tracef("learned %d candidates from %d samples; order %v",
		len(e.funcs), e.stats.Samples, e.order)
	return nil
}

// drawSamples produces the training data Σ via constrained sampling of ϕ,
// projected onto vars (X ∪ Y). It hands the sampler what preprocessing
// found, the unates' constants and the gate definitions, so the sampler's
// exact and row paths see ϕ's support: X plus the existentials left open.
// A sampling error other than cancellation or the draws' budget is
// ErrInternal: the run's initial check found a model of ϕ, so the only
// other one, an unsatisfiable ϕ, means a fault.
func (e *Engine) drawSamples(vars []cnf.Var) ([]cnf.Assignment, error) {
	var sst sampler.Stats
	samples, err := sampler.Sample(e.ctx, e.in.Matrix, e.opts.numSamples, sampler.Options{
		Seed:  e.opts.Seed,
		Vars:  vars,
		Fixed: e.unates,
		Defs:  e.gatesInEvalOrder(),
		Exist: e.in.Exist,
		Stats: &sst,
	})
	e.extraOracle += sst.Solves
	if err != nil {
		if cerr := e.interrupted(); cerr != nil {
			return nil, cerr
		}
		if errors.Is(err, sampler.ErrBudget) {
			return nil, fmt.Errorf("%w: sampling: %w", ErrBudget, err)
		}
		return nil, fmt.Errorf("%w: sampling: %w", ErrInternal, err)
	}
	if sst.Path == sampler.PathDrawn {
		e.tracef("sample: %d samples drawn in %d solves", len(samples), sst.Solves)
	} else {
		e.tracef("sample: %d samples, %v", len(samples), sst.Path)
	}
	return samples, nil
}

// allFixed reports whether preprocessing fixed every existential.
func (e *Engine) allFixed() bool {
	for _, y := range e.in.Exist {
		if !e.fixed[y] {
			return false
		}
	}
	return true
}

// sampleMatrix is the training set Σ packed column-major: one bitset of
// stride words per sampled variable, bit i holding sample i's value.
type sampleMatrix struct {
	n      int      // |Σ|
	stride int      // words per column, ⌈n/64⌉
	bits   []uint64 // column k at bits[k*stride : (k+1)*stride]
	slot   []int    // slot[v]: v's column index; -1 for an unsampled variable
}

// packSamples packs the samples' values of vars into a sampleMatrix.
func packSamples(vars []cnf.Var, samples []cnf.Assignment) sampleMatrix {
	maxV := cnf.Var(0)
	for _, v := range vars {
		maxV = max(maxV, v)
	}
	m := sampleMatrix{
		n:      len(samples),
		stride: dtree.Words(len(samples)),
		slot:   make([]int, maxV+1),
	}
	for v := range m.slot {
		m.slot[v] = -1
	}
	m.bits = make([]uint64, len(vars)*m.stride)
	for k, v := range vars {
		m.slot[v] = k
		col := m.col(v)
		for i, s := range samples {
			if s.Get(v) == cnf.True {
				col[i/64] |= 1 << (i % 64)
			}
		}
	}
	return m
}

// col returns v's column. v must be a sampled variable.
func (m *sampleMatrix) col(v cnf.Var) []uint64 {
	k := m.slot[v]
	return m.bits[k*m.stride : (k+1)*m.stride : (k+1)*m.stride]
}

// featuresFor computes Algorithm 2's feature set for yi against the CURRENT
// dependency matrix: Hi ∪ {yj : Hj ⊆ Hi, yj ∉ d_i ∪ {yi}}.
func (e *Engine) featuresFor(yi cnf.Var) []cnf.Var {
	featset := append([]cnf.Var(nil), e.in.DepSet(yi)...)
	for _, yj := range e.in.Exist {
		if yj == yi {
			continue
		}
		if e.fixed[yj] && e.b.Op(e.funcs[yj]) == boolfunc.OpConst {
			// Constants are useless as features. A defined variable stays
			// one: its gate may be exactly what yi needs.
			continue
		}
		if e.in.SubsetDeps(yj, yi) && !e.deps[yi][yj] {
			featset = append(featset, yj)
		}
	}
	return featset
}

// learnCandidate learns yi's candidate over featuresFor(yi), on the columns
// of packed Σ: the features' columns and yi's as the labels. It installs
// the tree as fi, one Ite per tree node, computing the disjunction of
// 1-paths, and updates the dependency bookkeeping D through recordUse
// (Algorithm 2 lines 8-12); with no features, fi is the majority label. A
// shape error from dtree means core packed Σ wrong, so it is ErrInternal.
func (e *Engine) learnCandidate(yi cnf.Var) error {
	featset := e.featuresFor(yi)
	labels := e.sigma.col(yi)
	if len(featset) == 0 {
		pos := 0
		for _, w := range labels {
			pos += bits.OnesCount64(w)
		}
		e.setFunc(yi, e.b.Const(pos*2 >= e.sigma.n))
		return nil
	}
	ds := &dtree.Dataset{
		Features: featset,
		N:        e.sigma.n,
		Cols:     make([][]uint64, len(featset)),
		Labels:   labels,
	}
	for k, v := range featset {
		ds.Cols[k] = e.sigma.col(v)
	}
	tree, err := dtree.Learn(ds, dtree.Options{MaxDepth: e.opts.treeMaxDepth})
	if err != nil {
		return fmt.Errorf("%w: learning candidate for %d: %w", ErrInternal, yi, err)
	}
	if e.opts.Logf != nil {
		e.tracef("decision tree for y%d (features %v):\n%s", yi, featset, tree)
	}
	f := tree.ToFunc(e.b)
	// Lines 11-12: every yk used by the tree gains yi (and everything
	// that depends on yi) as dependents; recordUse keeps the closure
	// transitive so later trees cannot close a reference cycle.
	e.scrSupport = tree.AppendUsedFeatures(e.scrSupport[:0])
	for _, yk := range e.scrSupport {
		if e.in.IsExist(yk) {
			e.recordUse(yi, yk)
		}
	}
	e.setFunc(yi, f)
	return nil
}
