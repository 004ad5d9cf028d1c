package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dtree"
	"repro/internal/oracle"
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
// Algorithm 2) over the sample phase's packed Σ.
//
// Decision-tree learning is the expensive part and, given the samples and a
// snapshot of the dependency matrix, each existential's tree is independent
// of the others, so the trees are learned speculatively through
// oracle.ForEach (Options.LearnWorkers). Every learner reads the same packed
// Σ and owns only its tree's scratch. The deps/recordUse bookkeeping is
// NOT independent — in the serial algorithm, the tree learned for y1 bans y1
// as a feature for later trees that would close a reference cycle — so the
// learned trees are merged back sequentially in declaration order: a tree
// that references a feature banned by an earlier merge is relearned
// serially against the current matrix (Stats.LearnConflicts counts these).
// Because the parallel phase depends only on the snapshot and the merge
// only on declaration order, the resulting candidates are bit-identical for
// every worker count. With one worker there is nothing to speculate on: each
// tree is learned against the current matrix right before its merge. That
// gives the same trees, because the current matrix drops only features the
// snapshot offered, and dropping a feature a tree never splits on cannot
// change the tree under dtree's first-wins rule; a tree that did split on
// one is the tree the merge relearns anyway. On sat2dqbf, whose constants
// take each other as features, most speculative trees were relearned.
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

	// Line 7: learn a candidate per existential. The worker pool reads the
	// engine (Σ, instance, dependency matrix) strictly read-only; all
	// mutation happens in the sequential merge below.
	todo := make([]cnf.Var, 0, len(e.in.Exist))
	for _, yi := range e.in.Exist {
		if e.fixed[yi] {
			continue // preprocessing already fixed this function
		}
		todo = append(todo, yi)
	}
	if oracle.Workers(e.opts.LearnWorkers, len(todo)) == 1 {
		// One worker learns each tree against the current matrix right before
		// merging it, so no tree is learned twice. ForEach runs it inline, in
		// index order.
		err := oracle.ForEach(e.ctx, 1, len(todo), func(i int) error {
			lt, err := e.learnTree(todo[i])
			if err != nil {
				return fmt.Errorf("%w: learning candidate for %d: %w", ErrInternal, todo[i], err)
			}
			return e.mergeCandidate(todo[i], lt)
		})
		if err != nil {
			return e.workerErr("learn", err)
		}
	} else {
		learned, err := e.learnTrees(todo)
		if err != nil {
			return err
		}
		// Deterministic merge in declaration order.
		for i, yi := range todo {
			if err := e.mergeCandidate(yi, learned[i]); err != nil {
				return err
			}
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

// learnedTree is the output of the speculative learning phase for one
// existential: either a decision tree over feats, or (when the feature set
// is empty) the majority-label constant.
type learnedTree struct {
	feats    []cnf.Var
	tree     *dtree.Tree // nil → constant candidate
	constVal bool
}

// learnTrees learns a candidate tree for every variable of todo through
// oracle.ForEach with Options.LearnWorkers workers. Workers only read shared
// state; results land at their own index, so the output is independent of
// scheduling.
func (e *Engine) learnTrees(todo []cnf.Var) ([]learnedTree, error) {
	out := make([]learnedTree, len(todo))
	err := oracle.ForEach(e.ctx, e.opts.LearnWorkers, len(todo), func(i int) (err error) {
		if out[i], err = e.learnTree(todo[i]); err != nil {
			return fmt.Errorf("%w: learning candidate for %d: %w", ErrInternal, todo[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, e.workerErr("learn", err)
	}
	return out, nil
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

// learnTree learns one candidate tree for yi over featuresFor(yi), on the
// columns of packed Σ: the features' columns and yi's as the labels. A shape
// error from dtree means core packed Σ wrong, so callers classify it as
// ErrInternal.
func (e *Engine) learnTree(yi cnf.Var) (learnedTree, error) {
	featset := e.featuresFor(yi)
	labels := e.sigma.col(yi)
	if len(featset) == 0 {
		// No features: learn the majority label as a constant.
		pos := 0
		for _, w := range labels {
			pos += bits.OnesCount64(w)
		}
		return learnedTree{constVal: pos*2 >= e.sigma.n}, nil
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
		return learnedTree{}, err
	}
	return learnedTree{feats: featset, tree: tree}, nil
}

// mergeCandidate installs one speculatively-learned tree (Algorithm 2 lines
// 8-12): convert the 1-labeled paths to a candidate function and update the
// dependency bookkeeping D through recordUse. If the tree references a
// feature that an earlier merge banned (using it now would close a reference
// cycle), the tree is relearned serially against the current dependency
// matrix first — the one spot where speculative parallelism and the serial
// semantics can disagree.
func (e *Engine) mergeCandidate(yi cnf.Var, lt learnedTree) error {
	var used []cnf.Var
	if lt.tree != nil {
		used = lt.tree.AppendUsedFeatures(e.scrSupport[:0])
		for _, yk := range used {
			if e.in.IsExist(yk) && e.deps[yi][yk] {
				e.stats.LearnConflicts++
				relearned, err := e.learnTree(yi)
				if err != nil {
					return fmt.Errorf("%w: relearning candidate for %d: %w", ErrInternal, yi, err)
				}
				lt = relearned
				if lt.tree != nil {
					used = lt.tree.AppendUsedFeatures(used[:0])
				}
				break
			}
		}
		e.scrSupport = used
	}
	if lt.tree == nil {
		e.setFunc(yi, e.b.Const(lt.constVal))
		return nil
	}
	if e.opts.Logf != nil {
		e.tracef("decision tree for y%d (features %v):\n%s", yi, lt.feats, lt.tree)
	}
	f := lt.tree.ToFunc(e.b)
	// Lines 11-12: every yk used by the tree gains yi (and everything
	// that depends on yi) as dependents; recordUse keeps the closure
	// transitive so later merges cannot close a reference cycle.
	for _, yk := range used {
		if !e.in.IsExist(yk) {
			continue
		}
		e.recordUse(yi, yk)
	}
	e.setFunc(yi, f)
	return nil
}
