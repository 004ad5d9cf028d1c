// Package dtree implements a binary decision-tree classifier for Boolean
// features and labels, built with the ID3 algorithm using the Gini index as
// the impurity measure — the exact learner configuration the Manthan3 paper
// uses (via Scikit-Learn's DecisionTreeClassifier) to learn candidate Henkin
// functions.
//
// The training set is column-major: one bitset per feature and one for the
// labels, bit i holding row i's value. A node is a bitset mask over the rows
// that reach it, so scoring a candidate split takes popcounts of the mask
// ANDed with the feature and label columns, and a split is one AND and one
// AND-NOT per word. The counts, the Gini expression and the first-wins tie
// rule are those of the row-scanning ID3 builder the tests keep as a
// reference, so the learned trees are structurally identical to it.
//
// A learned tree converts to a Boolean function as an if-then-else circuit,
// one Ite per tree node, computing the disjunction of 1-paths: the
// root-to-leaf paths that end in a leaf labeled 1 (paper Algorithm 2,
// lines 7-10).
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package dtree

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
)

// Options configures learning.
type Options struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinSamplesSplit is the minimum number of rows required to attempt a
	// split; nodes with fewer rows become leaves. 0 means 2.
	MinSamplesSplit int
}

// Dataset is a labeled Boolean training set of N rows, stored column-major:
// bit i of Cols[k] is row i's value of Features[k], and bit i of Labels is
// row i's label. Every bitset holds Words(N) words; bits at or above N are
// never read.
type Dataset struct {
	// Features names each column with the propositional variable it samples.
	Features []cnf.Var
	// N is the number of rows.
	N int
	// Cols holds one bitset per feature, parallel to Features.
	Cols [][]uint64
	// Labels holds the target value of every row.
	Labels []uint64
}

// Words returns the number of 64-bit words a bitset over n rows occupies.
func Words(n int) int { return (n + 63) / 64 }

// Validate checks shape consistency.
func (d *Dataset) Validate() error {
	if d.N < 1 {
		return fmt.Errorf("dtree: empty dataset (%d rows)", d.N)
	}
	w := Words(d.N)
	if len(d.Cols) != len(d.Features) {
		return fmt.Errorf("dtree: %d columns for %d features", len(d.Cols), len(d.Features))
	}
	for k, c := range d.Cols {
		if len(c) != w {
			return fmt.Errorf("dtree: column %d has %d words for %d rows, want %d", k, len(c), d.N, w)
		}
	}
	if len(d.Labels) != w {
		return fmt.Errorf("dtree: labels have %d words for %d rows, want %d", len(d.Labels), d.N, w)
	}
	return nil
}

// Node is a decision-tree node. Leaf nodes have Feature == 0 and carry the
// class in Label; internal nodes test Feature and branch to Lo (feature
// false) or Hi (feature true).
type Node struct {
	Feature cnf.Var
	Lo, Hi  *Node
	Label   bool
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature == 0 }

// Tree is a learned classifier.
type Tree struct {
	Root *Node
}

// learner holds one Learn call's read-only dataset and its scratch: one row
// mask per tree depth, the node's mask ANDed with the labels, and the slab
// the tree's nodes come from.
type learner struct {
	d        *Dataset
	used     []bool     // features tested on the path to the current node
	masks    [][]uint64 // masks[k]: rows reaching the current node at depth k
	maskPos  []uint64   // the current node's mask & Labels, rebuilt per node
	minSplit int
	slab     []Node // unused nodes of the current chunk
	chunk    int    // size of the last chunk allocated
}

// node returns a zero node from the slab, refilled in chunks that double
// from 16 to 128 nodes, so a tree costs a few allocations instead of one
// per node.
func (l *learner) node() *Node {
	if len(l.slab) == 0 {
		l.chunk = min(max(2*l.chunk, 16), 128)
		l.slab = make([]Node, l.chunk)
	}
	n := &l.slab[0]
	l.slab = l.slab[1:]
	return n
}

// leaf returns a leaf node labeled label.
func (l *learner) leaf(label bool) *Node {
	n := l.node()
	n.Label = label
	return n
}

// Learn fits a decision tree to the dataset with ID3/Gini.
func Learn(d *Dataset, opts Options) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	minSplit := opts.MinSamplesSplit
	if minSplit <= 0 {
		minSplit = 2
	}
	// Every split tests a feature not yet tested on its path, so nodes sit
	// at depths 0…|Features|, each depth owning one mask.
	w := Words(d.N)
	levels := len(d.Features) + 1
	flat := make([]uint64, (levels+1)*w)
	l := &learner{
		d:        d,
		used:     make([]bool, len(d.Features)),
		masks:    make([][]uint64, levels),
		maskPos:  flat[levels*w:],
		minSplit: minSplit,
	}
	for k := range l.masks {
		l.masks[k] = flat[k*w : (k+1)*w : (k+1)*w]
	}
	root := l.masks[0]
	for i := range root {
		root[i] = ^uint64(0)
	}
	if r := d.N % 64; r != 0 {
		root[w-1] = 1<<r - 1
	}
	return &Tree{Root: l.build(0, opts.MaxDepth)}, nil
}

// build grows the subtree of the rows in l.masks[depth]; its children's
// masks go to l.masks[depth+1], one after the other.
func (l *learner) build(depth, depthLeft int) *Node {
	d, mask := l.d, l.masks[depth]
	maskPos, labels := l.maskPos[:len(mask)], d.Labels[:len(mask)]
	n, pos := 0, 0
	for i, m := range mask {
		mp := m & labels[i]
		maskPos[i] = mp
		n += bits.OnesCount64(m)
		pos += bits.OnesCount64(mp)
	}
	majority := pos*2 >= n
	if pos == 0 || pos == n || n < l.minSplit || depthLeft == 1 {
		return l.leaf(majority)
	}
	// Pick the split with minimum weighted Gini. Like CART, a split is taken
	// whenever the node is impure and some feature separates the rows, even
	// if the impurity does not strictly decrease at this level (XOR-shaped
	// targets need that to make progress). The scan only counts; the winning
	// feature's children are masked out once afterwards.
	bestF := -1
	bestGini := 2.0
	for f, col := range d.Cols {
		if l.used[f] {
			continue
		}
		col = col[:len(mask)]
		hiN, hiPos := 0, 0
		for i, m := range mask {
			hiN += bits.OnesCount64(m & col[i])
			hiPos += bits.OnesCount64(maskPos[i] & col[i])
		}
		loN, loPos := n-hiN, pos-hiPos
		if loN == 0 || hiN == 0 {
			continue
		}
		g := (float64(loN)*giniOf(loPos, loN) + float64(hiN)*giniOf(hiPos, hiN)) / float64(n)
		if g < bestGini-1e-12 {
			bestGini, bestF = g, f
		}
	}
	if bestF < 0 {
		return l.leaf(majority)
	}
	nextDepth := depthLeft
	if nextDepth > 0 {
		nextDepth--
	}
	col, child := d.Cols[bestF][:len(mask)], l.masks[depth+1][:len(mask)]
	nd := l.node()
	nd.Feature = d.Features[bestF]
	l.used[bestF] = true
	for i, m := range mask {
		child[i] = m &^ col[i]
	}
	nd.Lo = l.build(depth+1, nextDepth)
	for i, m := range mask {
		child[i] = m & col[i]
	}
	nd.Hi = l.build(depth+1, nextDepth)
	l.used[bestF] = false
	return nd
}

// giniOf returns the Gini impurity of a node with pos positives out of n.
func giniOf(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Predict classifies a feature vector given as an assignment of the feature
// variables.
func (t *Tree) Predict(a cnf.Assignment) bool {
	n := t.Root
	for !n.IsLeaf() {
		if a.Get(n.Feature) == cnf.True {
			n = n.Hi
		} else {
			n = n.Lo
		}
	}
	return n.Label
}

// Depth returns the depth of the tree (a lone leaf has depth 1).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	dl, dh := depth(n.Lo), depth(n.Hi)
	if dh > dl {
		dl = dh
	}
	return dl + 1
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return leaves(t.Root) }

func leaves(n *Node) int {
	if n.IsLeaf() {
		return 1
	}
	return leaves(n.Lo) + leaves(n.Hi)
}

// ToFunc converts the tree to a Boolean function in builder b, one Ite per
// tree node, computing the disjunction of 1-paths: a leaf is its label's
// constant and an internal node is Ite(feature, Hi, Lo), so an input reaches
// a 1-labeled leaf exactly when the function is true. The builder's folding
// of constant and equal branches leaves at most one gate per internal node.
func (t *Tree) ToFunc(b *boolfunc.Builder) boolfunc.Node {
	return toFunc(b, t.Root)
}

func toFunc(b *boolfunc.Builder, n *Node) boolfunc.Node {
	if n.IsLeaf() {
		return b.Const(n.Label)
	}
	return b.Ite(b.Var(n.Feature), toFunc(b, n.Hi), toFunc(b, n.Lo))
}

// AppendUsedFeatures appends the feature variables the tree tests to dst,
// each once, in the order a depth-first walk (node, then Lo, then Hi) first
// reaches them, and returns the extended slice. It allocates only when dst
// must grow.
func (t *Tree) AppendUsedFeatures(dst []cnf.Var) []cnf.Var {
	return appendUsed(dst, len(dst), t.Root)
}

// appendUsed is AppendUsedFeatures' walk; dst[start:] holds the features
// found so far. A tree tests few distinct features, so the duplicate check
// scans them instead of keeping a set.
func appendUsed(dst []cnf.Var, start int, n *Node) []cnf.Var {
	if n.IsLeaf() {
		return dst
	}
	if !slices.Contains(dst[start:], n.Feature) {
		dst = append(dst, n.Feature)
	}
	dst = appendUsed(dst, start, n.Lo)
	return appendUsed(dst, start, n.Hi)
}
