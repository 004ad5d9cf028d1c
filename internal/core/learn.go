package core

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/dtree"
	"repro/internal/oracle"
	"repro/internal/sampler"
)

// samplePhase is the data-generation phase (Algorithm 1 lines 1-2): it
// draws the training set Σ via constrained sampling of ϕ and parks it on
// the engine for the learn phase.
func (e *Engine) samplePhase() error {
	samples, err := e.drawSamples()
	if err != nil {
		return err
	}
	e.samples = samples
	e.stats.Samples = len(samples)
	return nil
}

// learnPhase is the candidate-learning phase (Algorithm 1 lines 3-7 and
// Algorithm 2) over the sample phase's Σ.
//
// Decision-tree learning is the expensive part and, given the samples and a
// snapshot of the dependency matrix, each existential's tree is independent
// of the others, so the trees are learned speculatively through
// oracle.ForEach (Options.LearnWorkers). The deps/recordUse bookkeeping is
// NOT independent — in the serial algorithm, the tree learned for y1 bans y1
// as a feature for later trees that would close a reference cycle — so the
// learned trees are merged back sequentially in declaration order: a tree
// that references a feature banned by an earlier merge is relearned
// serially against the current matrix (Stats.LearnConflicts counts these).
// Because the parallel phase depends only on the snapshot and the merge
// only on declaration order, the resulting candidates are bit-identical for
// every worker count.
func (e *Engine) learnPhase() error {
	samples := e.samples

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
	// engine (samples, instance, dependency matrix) strictly read-only; all
	// mutation happens in the sequential merge below.
	todo := make([]cnf.Var, 0, len(e.in.Exist))
	for _, yi := range e.in.Exist {
		if e.fixed[yi] {
			continue // preprocessing already fixed this function
		}
		todo = append(todo, yi)
	}
	learned, err := e.learnTrees(samples, todo)
	if err != nil {
		return err
	}
	// Deterministic merge in declaration order.
	for i, yi := range todo {
		if err := e.mergeCandidate(samples, yi, learned[i]); err != nil {
			return err
		}
	}
	e.samples = nil // Σ is dead after learning; free it before verify-repair
	e.findOrder()
	e.tracef("learned %d candidates from %d samples; order %v",
		len(e.funcs), e.stats.Samples, e.order)
	return nil
}

// drawSamples produces the training data Σ via constrained sampling of ϕ.
func (e *Engine) drawSamples() ([]cnf.Assignment, error) {
	vars := make([]cnf.Var, 0, len(e.in.Univ)+len(e.in.Exist))
	vars = append(vars, e.in.Univ...)
	vars = append(vars, e.in.Exist...)
	adaptive := e.in.Exist
	if e.opts.DisableAdaptiveSampling {
		adaptive = nil
	}
	var sst sampler.Stats
	samples, err := sampler.Sample(e.ctx, e.in.Matrix, e.opts.NumSamples, sampler.Options{
		Seed:         e.opts.Seed,
		Vars:         vars,
		AdaptiveVars: adaptive,
		Stats:        &sst,
	})
	e.extraOracle += sst.Solves
	if err != nil {
		if cerr := e.interrupted(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("core: sampling: %w", err)
	}
	return samples, nil
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
func (e *Engine) learnTrees(samples []cnf.Assignment, todo []cnf.Var) ([]learnedTree, error) {
	out := make([]learnedTree, len(todo))
	err := oracle.ForEach(e.ctx, e.opts.LearnWorkers, len(todo), func(i int) (err error) {
		if out[i], err = e.learnTree(samples, todo[i]); err != nil {
			return fmt.Errorf("core: learning candidate for %d: %w", todo[i], err)
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
		if e.fixed[yj] {
			// Fixed functions are constants; useless as features.
			continue
		}
		if e.in.SubsetDeps(yj, yi) && !e.deps[yi][yj] {
			featset = append(featset, yj)
		}
	}
	return featset
}

// learnTree learns one candidate tree for yi over featuresFor(yi).
func (e *Engine) learnTree(samples []cnf.Assignment, yi cnf.Var) (learnedTree, error) {
	featset := e.featuresFor(yi)
	if len(featset) == 0 {
		// No features: learn the majority label as a constant.
		pos := 0
		for _, s := range samples {
			if s.Get(yi) == cnf.True {
				pos++
			}
		}
		return learnedTree{constVal: pos*2 >= len(samples)}, nil
	}
	ds := &dtree.Dataset{
		Features: featset,
		Rows:     make([][]bool, len(samples)),
		Labels:   make([]bool, len(samples)),
	}
	flat := make([]bool, len(samples)*len(featset))
	for si, s := range samples {
		row := flat[si*len(featset) : (si+1)*len(featset) : (si+1)*len(featset)]
		for k, v := range featset {
			row[k] = s.Get(v) == cnf.True
		}
		ds.Rows[si] = row
		ds.Labels[si] = s.Get(yi) == cnf.True
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
func (e *Engine) mergeCandidate(samples []cnf.Assignment, yi cnf.Var, lt learnedTree) error {
	if lt.tree != nil {
		for _, yk := range lt.tree.UsedFeatures() {
			if e.in.IsExist(yk) && e.deps[yi][yk] {
				e.stats.LearnConflicts++
				relearned, err := e.learnTree(samples, yi)
				if err != nil {
					return fmt.Errorf("core: relearning candidate for %d: %w", yi, err)
				}
				lt = relearned
				break
			}
		}
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
	for _, yk := range lt.tree.UsedFeatures() {
		if !e.in.IsExist(yk) {
			continue
		}
		e.recordUse(yi, yk)
	}
	e.setFunc(yi, f)
	return nil
}
