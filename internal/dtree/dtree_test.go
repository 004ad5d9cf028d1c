package dtree

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/sampler"
)

// rowData is a row-major training set, the shape the tests write datasets
// in: rows[i] holds row i's feature values (parallel to features) and
// labels[i] its label.
type rowData struct {
	features []cnf.Var
	rows     [][]bool
	labels   []bool
}

// columns packs r into the column-major Dataset Learn takes.
func (r *rowData) columns() *Dataset {
	w := Words(len(r.rows))
	d := &Dataset{
		Features: r.features,
		N:        len(r.rows),
		Cols:     make([][]uint64, len(r.features)),
		Labels:   make([]uint64, w),
	}
	for k := range d.Cols {
		d.Cols[k] = make([]uint64, w)
	}
	for i, row := range r.rows {
		for k, v := range row {
			if v {
				d.Cols[k][i/64] |= 1 << (i % 64)
			}
		}
		if r.labels[i] {
			d.Labels[i/64] |= 1 << (i % 64)
		}
	}
	return d
}

// learnRows packs r and learns a tree from it.
func learnRows(r *rowData, opts Options) (*Tree, error) {
	return Learn(r.columns(), opts)
}

// referenceLearn is the row-scanning ID3/Gini builder Learn replaced: every
// node rescans its rows once per candidate feature, and a split stably
// partitions the node's row indices. Learn must return structurally
// identical trees.
func referenceLearn(r *rowData, opts Options) *Node {
	minSplit := opts.MinSamplesSplit
	if minSplit <= 0 {
		minSplit = 2
	}
	idx := make([]int, len(r.rows))
	for i := range idx {
		idx[i] = i
	}
	used := make([]bool, len(r.features))
	scratch := make([]int, len(r.rows))
	return referenceBuild(r, idx, scratch, used, opts.MaxDepth, minSplit)
}

func referenceBuild(r *rowData, idx, scratch []int, used []bool, depthLeft, minSplit int) *Node {
	pos := 0
	for _, i := range idx {
		if r.labels[i] {
			pos++
		}
	}
	majority := pos*2 >= len(idx)
	if pos == 0 || pos == len(idx) || len(idx) < minSplit || depthLeft == 1 {
		return &Node{Label: majority}
	}
	bestF := -1
	bestGini := 2.0
	for f := range r.features {
		if used[f] {
			continue
		}
		loN, hiN, loPos, hiPos := 0, 0, 0, 0
		for _, i := range idx {
			if r.rows[i][f] {
				hiN++
				if r.labels[i] {
					hiPos++
				}
			} else {
				loN++
				if r.labels[i] {
					loPos++
				}
			}
		}
		if loN == 0 || hiN == 0 {
			continue
		}
		g := (float64(loN)*giniOf(loPos, loN) + float64(hiN)*giniOf(hiPos, hiN)) / float64(len(idx))
		if g < bestGini-1e-12 {
			bestGini, bestF = g, f
		}
	}
	if bestF < 0 {
		return &Node{Label: majority}
	}
	nLo, nHi := 0, 0
	for _, i := range idx {
		if r.rows[i][bestF] {
			scratch[nHi] = i
			nHi++
		} else {
			idx[nLo] = i
			nLo++
		}
	}
	copy(idx[nLo:], scratch[:nHi])
	used[bestF] = true
	nextDepth := depthLeft
	if nextDepth > 0 {
		nextDepth--
	}
	lo := referenceBuild(r, idx[:nLo], scratch, used, nextDepth, minSplit)
	hi := referenceBuild(r, idx[nLo:], scratch, used, nextDepth, minSplit)
	used[bestF] = false
	return &Node{Feature: r.features[bestF], Lo: lo, Hi: hi}
}

// sameTree reports whether two trees test the same features at the same
// places and label their leaves alike.
func sameTree(a, b *Node) bool {
	if a.IsLeaf() || b.IsLeaf() {
		return a.IsLeaf() && b.IsLeaf() && a.Label == b.Label
	}
	return a.Feature == b.Feature && sameTree(a.Lo, b.Lo) && sameTree(a.Hi, b.Hi)
}

// checkMatchesReference learns r with Learn and with referenceLearn and
// fails unless the trees are structurally identical.
func checkMatchesReference(t *testing.T, what string, r *rowData, opts Options) *Tree {
	t.Helper()
	tr, err := learnRows(r, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if ref := referenceLearn(r, opts); !sameTree(tr.Root, ref) {
		t.Fatalf("%s (%d rows, %d features, %+v): tree differs from the reference\n--- Learn ---\n%s--- reference ---\n%s",
			what, len(r.rows), len(r.features), opts, tr, &Tree{Root: ref})
	}
	return tr
}

// tableDataset builds the full truth table of fn over the given features.
func tableDataset(features []cnf.Var, fn func([]bool) bool) *rowData {
	n := len(features)
	r := &rowData{features: features}
	for mask := 0; mask < 1<<n; mask++ {
		row := make([]bool, n)
		for j := 0; j < n; j++ {
			row[j] = mask&(1<<j) != 0
		}
		r.rows = append(r.rows, row)
		r.labels = append(r.labels, fn(row))
	}
	return r
}

func assignOf(features []cnf.Var, row []bool) cnf.Assignment {
	maxV := cnf.Var(0)
	for _, f := range features {
		if f > maxV {
			maxV = f
		}
	}
	a := cnf.NewAssignment(int(maxV))
	for i, f := range features {
		a.SetBool(f, row[i])
	}
	return a
}

func TestLearnConstant(t *testing.T) {
	r := &rowData{
		features: []cnf.Var{1},
		rows:     [][]bool{{false}, {true}},
		labels:   []bool{true, true},
	}
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() || !tr.Root.Label {
		t.Fatal("constant-true data should give a true leaf")
	}
	b := boolfunc.NewBuilder()
	if tr.ToFunc(b) != b.True() {
		t.Fatal("ToFunc of constant tree should be true")
	}
}

func TestLearnSingleVariable(t *testing.T) {
	feats := []cnf.Var{1, 2, 3}
	r := tableDataset(feats, func(row []bool) bool { return row[1] })
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.rows {
		if tr.Predict(assignOf(feats, row)) != r.labels[i] {
			t.Fatalf("row %d misclassified", i)
		}
	}
	// Gini should pick exactly the one relevant feature.
	uf := tr.AppendUsedFeatures(nil)
	if len(uf) != 1 || uf[0] != 2 {
		t.Fatalf("used features: %v, want [2]", uf)
	}
}

// TestAppendUsedFeaturesOrder pins AppendUsedFeatures' contract: each tested
// feature once, in first-visit order of a node-Lo-Hi walk, after whatever
// dst already holds, and no allocation when dst has room.
func TestAppendUsedFeaturesOrder(t *testing.T) {
	leaf := func(label bool) *Node { return &Node{Label: label} }
	split := func(f cnf.Var, lo, hi *Node) *Node { return &Node{Feature: f, Lo: lo, Hi: hi} }
	tr := &Tree{Root: split(5,
		split(2, leaf(false), split(9, leaf(true), leaf(false))),
		split(9, split(2, leaf(true), leaf(false)), split(7, leaf(false), leaf(true))))}
	got := tr.AppendUsedFeatures([]cnf.Var{100, 2})
	want := []cnf.Var{100, 2, 5, 2, 9, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AppendUsedFeatures = %v, want %v", got, want)
	}
	if got := (&Tree{Root: leaf(true)}).AppendUsedFeatures(nil); len(got) != 0 {
		t.Fatalf("leaf tree uses features %v", got)
	}
	buf := make([]cnf.Var, 0, 8)
	if n := testing.AllocsPerRun(10, func() { buf = tr.AppendUsedFeatures(buf[:0]) }); n != 0 {
		t.Fatalf("AppendUsedFeatures allocates %.0f times into a roomy buffer", n)
	}
}

func TestLearnXorNeedsDepth(t *testing.T) {
	feats := []cnf.Var{1, 2}
	r := tableDataset(feats, func(row []bool) bool { return row[0] != row[1] })
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.rows {
		if tr.Predict(assignOf(feats, row)) != r.labels[i] {
			t.Fatalf("xor row %d misclassified", i)
		}
	}
	if tr.Depth() < 3 {
		t.Fatalf("xor needs depth 3, got %d", tr.Depth())
	}
}

func TestFullTableFidelity(t *testing.T) {
	// On a complete truth table with no depth bound, the tree must fit the
	// data perfectly — a key property Manthan3's learning step relies on.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		feats := make([]cnf.Var, n)
		for i := range feats {
			feats[i] = cnf.Var(i + 1)
		}
		table := make([]bool, 1<<n)
		for i := range table {
			table[i] = rng.Intn(2) == 0
		}
		r := tableDataset(feats, func(row []bool) bool {
			idx := 0
			for j, b := range row {
				if b {
					idx |= 1 << j
				}
			}
			return table[idx]
		})
		tr, err := learnRows(r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range r.rows {
			if tr.Predict(assignOf(feats, row)) != r.labels[i] {
				t.Fatalf("trial %d: row %d misclassified", trial, i)
			}
		}
	}
}

func TestToFuncMatchesPredict(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		feats := make([]cnf.Var, n)
		for i := range feats {
			feats[i] = cnf.Var(i + 1)
		}
		r := &rowData{features: feats}
		rows := 1 + rng.Intn(20)
		for i := 0; i < rows; i++ {
			row := make([]bool, n)
			for j := range row {
				row[j] = rng.Intn(2) == 0
			}
			r.rows = append(r.rows, row)
			r.labels = append(r.labels, rng.Intn(2) == 0)
		}
		tr, err := learnRows(r, Options{MaxDepth: 1 + rng.Intn(5)})
		if err != nil {
			return false
		}
		b := boolfunc.NewBuilder()
		f := tr.ToFunc(b)
		// The function and Predict must agree on every complete input.
		for mask := 0; mask < 1<<n; mask++ {
			row := make([]bool, n)
			for j := 0; j < n; j++ {
				row[j] = mask&(1<<j) != 0
			}
			a := assignOf(feats, row)
			if b.Eval(f, a) != tr.Predict(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// referenceToFunc is the walk ToFunc replaced, the disjunction of 1-paths
// spelled out in DNF: every internal node interns its path's conjunction
// with each branch literal and the disjunction of its subtrees' results, and
// a 1-labeled leaf returns its path's conjunction. ToFunc must compute the
// same function.
func referenceToFunc(tr *Tree, b *boolfunc.Builder) boolfunc.Node {
	var walk func(n *Node, path boolfunc.Node) boolfunc.Node
	walk = func(n *Node, path boolfunc.Node) boolfunc.Node {
		if n.IsLeaf() {
			if n.Label {
				return path
			}
			return b.False()
		}
		lo := walk(n.Lo, b.And(path, b.Not(b.Var(n.Feature))))
		hi := walk(n.Hi, b.And(path, b.Var(n.Feature)))
		return b.Or(lo, hi)
	}
	return walk(tr.Root, b.True())
}

// toFuncChecked converts tr with ToFunc on a fresh builder and fails unless
// the builder then holds at most one gate (And, Or, Xor or Ite node) per
// internal node of tr, which bounds the gates reachable from the function.
func toFuncChecked(t *testing.T, what string, tr *Tree) (*boolfunc.Builder, boolfunc.Node) {
	t.Helper()
	b := boolfunc.NewBuilder()
	f := tr.ToFunc(b)
	gates := 0
	for id := 1; id <= b.Size(); id++ {
		switch b.Op(boolfunc.Node(id)) {
		case boolfunc.OpAnd, boolfunc.OpOr, boolfunc.OpXor, boolfunc.OpIte:
			gates++
		}
	}
	if internal := tr.Leaves() - 1; gates > internal {
		t.Fatalf("%s: ToFunc interned %d gates for %d internal nodes\n%s", what, gates, internal, tr)
	}
	return b, f
}

// TestToFuncMatchesReference requires ToFunc, the DNF walk it replaced and
// Predict to agree on every assignment of the features, for trees learned
// from random datasets of 1–12 features and 1–256 rows, and ToFunc to cost
// at most one gate per internal node.
func TestToFuncMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 300; trial++ {
		nf, n := 1+rng.Intn(12), 1+rng.Intn(256)
		r := randomRows(rng, n, nf)
		opts := Options{MaxDepth: rng.Intn(6), MinSamplesSplit: rng.Intn(4)}
		tr, err := learnRows(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("trial %d (%d rows, %d features, %+v)", trial, n, nf, opts)
		b, f := toFuncChecked(t, what, tr)
		rb := boolfunc.NewBuilder()
		ref := referenceToFunc(tr, rb)
		a := assignOf(r.features, make([]bool, nf))
		for mask := 0; mask < 1<<nf; mask++ {
			for k, v := range r.features {
				a.SetBool(v, mask>>k&1 == 1)
			}
			want := tr.Predict(a)
			if got, dnf := b.Eval(f, a), rb.Eval(ref, a); got != want || dnf != want {
				t.Fatalf("%s, assignment %#x: ToFunc %v, reference %v, Predict %v\n%s", what, mask, got, dnf, want, tr)
			}
		}
	}

	leaf := func(label bool) *Node { return &Node{Label: label} }
	split := func(f cnf.Var, lo, hi *Node) *Node { return &Node{Feature: f, Lo: lo, Hi: hi} }
	for _, label := range []bool{false, true} {
		b := boolfunc.NewBuilder()
		if got := (&Tree{Root: leaf(label)}).ToFunc(b); got != b.Const(label) {
			t.Fatalf("leaf %v converts to %s", label, b.String(got))
		}
	}
	// A node whose subtrees are equal is that subtree: it tests nothing.
	sub := func() *Node { return split(2, leaf(false), split(3, leaf(true), leaf(false))) }
	b := boolfunc.NewBuilder()
	whole := (&Tree{Root: split(5, sub(), sub())}).ToFunc(b)
	if part := (&Tree{Root: sub()}).ToFunc(b); whole != part {
		t.Fatalf("v5 ? s : s converts to %s, want s = %s", b.String(whole), b.String(part))
	}
}

func TestMaxDepthRespected(t *testing.T) {
	feats := []cnf.Var{1, 2, 3, 4}
	r := tableDataset(feats, func(row []bool) bool {
		return (row[0] != row[1]) != (row[2] != row[3])
	})
	tr, err := learnRows(r, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 3 {
		t.Fatalf("depth %d exceeds MaxDepth 3", tr.Depth())
	}
}

func TestMinSamplesSplit(t *testing.T) {
	feats := []cnf.Var{1, 2}
	r := tableDataset(feats, func(row []bool) bool { return row[0] != row[1] })
	tr, err := learnRows(r, Options{MinSamplesSplit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() {
		t.Fatal("MinSamplesSplit ignored")
	}
}

func TestValidateErrors(t *testing.T) {
	one := func() []uint64 { return []uint64{1} }
	bad := map[string]*Dataset{
		"label words":  {Features: []cnf.Var{1}, N: 1, Cols: [][]uint64{one()}, Labels: nil},
		"column words": {Features: []cnf.Var{1}, N: 65, Cols: [][]uint64{one()}, Labels: []uint64{1, 0}},
		"column count": {Features: []cnf.Var{1, 2}, N: 1, Cols: [][]uint64{one()}, Labels: one()},
		"empty":        {Features: []cnf.Var{1}, Cols: [][]uint64{nil}},
	}
	for name, d := range bad {
		if _, err := Learn(d, Options{}); err == nil {
			t.Fatalf("%s mismatch accepted", name)
		}
	}
}

func TestNoisyMajorityLeaf(t *testing.T) {
	// Identical feature rows with conflicting labels: majority must win.
	r := &rowData{
		features: []cnf.Var{1},
		rows:     [][]bool{{true}, {true}, {true}},
		labels:   []bool{true, true, false},
	}
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := cnf.NewAssignment(1)
	a.SetBool(1, true)
	if !tr.Predict(a) {
		t.Fatal("majority label not used")
	}
}

func TestLeavesCount(t *testing.T) {
	feats := []cnf.Var{1, 2}
	r := tableDataset(feats, func(row []bool) bool { return row[0] && row[1] })
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() < 2 {
		t.Fatalf("implausible leaf count %d", tr.Leaves())
	}
}

func TestGiniPrefersInformativeFeature(t *testing.T) {
	// Feature 2 perfectly predicts, feature 1 is noise; root must test 2.
	r := &rowData{
		features: []cnf.Var{1, 2},
		rows: [][]bool{
			{false, false}, {true, false}, {false, true}, {true, true},
			{false, false}, {true, true},
		},
		labels: []bool{false, false, true, true, false, true},
	}
	tr, err := learnRows(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.IsLeaf() || tr.Root.Feature != 2 {
		t.Fatalf("root tests %v, want feature 2", tr.Root.Feature)
	}
}

// randomRows builds an n-row dataset over nf features whose columns are
// biased coins, constants, or copies of an earlier column (ties the
// first-wins rule must break like the reference), and whose labels are a
// noisy function of a few columns, a biased coin, or one constant.
func randomRows(rng *rand.Rand, n, nf int) *rowData {
	r := &rowData{features: make([]cnf.Var, nf), rows: make([][]bool, n), labels: make([]bool, n)}
	for k := range r.features {
		r.features[k] = cnf.Var(k + 1 + rng.Intn(3)*nf) // distinct, not always 1..nf
	}
	cols := make([][]bool, nf)
	for k := range cols {
		col := make([]bool, n)
		switch kind := rng.Intn(6); {
		case kind == 0:
			c := rng.Intn(2) == 0
			for i := range col {
				col[i] = c
			}
		case kind == 1 && k > 0:
			copy(col, cols[rng.Intn(k)])
		default:
			p := rng.Float64()
			for i := range col {
				col[i] = rng.Float64() < p
			}
		}
		cols[k] = col
	}
	deciders := []int{rng.Intn(nf), rng.Intn(nf), rng.Intn(nf)}
	kind, p, noise := rng.Intn(4), rng.Float64(), rng.Float64()*0.2
	for i := range r.rows {
		row := make([]bool, nf)
		for k := range row {
			row[k] = cols[k][i]
		}
		r.rows[i] = row
		switch kind {
		case 0:
			r.labels[i] = p < 0.5 // all labels equal
		case 1:
			r.labels[i] = rng.Float64() < p
		default:
			l := (row[deciders[0]] && row[deciders[1]]) != row[deciders[2]]
			r.labels[i] = l != (rng.Float64() < noise)
		}
	}
	return r
}

// sampledSigma draws the training set Σ core's sample phase draws for in,
// leaving out what preprocessing would fix: 400 samples over X ∪ Y.
func sampledSigma(tb testing.TB, in *dqbf.Instance, seed int64) []cnf.Assignment {
	tb.Helper()
	vars := append(append([]cnf.Var(nil), in.Univ...), in.Exist...)
	samples, err := sampler.Sample(context.Background(), in.Matrix, 400, sampler.Options{
		Seed: seed,
		Vars: vars,
	})
	if err != nil {
		tb.Fatalf("sampling: %v", err)
	}
	return samples
}

// allFeatures returns H(y) ∪ {y′ ≠ y : H(y′) ⊆ H(y)}, the features core's
// learn phase offers y while no earlier tree has banned one and
// preprocessing has fixed no existential.
func allFeatures(in *dqbf.Instance, y cnf.Var) []cnf.Var {
	feats := append([]cnf.Var(nil), in.DepSet(y)...)
	for _, y2 := range in.Exist {
		if y2 != y && in.SubsetDeps(y2, y) {
			feats = append(feats, y2)
		}
	}
	return feats
}

// sigmaRows projects Σ onto feats, labeled with y.
func sigmaRows(samples []cnf.Assignment, feats []cnf.Var, y cnf.Var) *rowData {
	r := &rowData{features: feats, rows: make([][]bool, len(samples)), labels: make([]bool, len(samples))}
	for i, s := range samples {
		row := make([]bool, len(feats))
		for k, v := range feats {
			row[k] = s.Get(v) == cnf.True
		}
		r.rows[i] = row
		r.labels[i] = s.Get(y) == cnf.True
	}
	return r
}

// TestLearnMatchesReference requires Learn to build the reference builder's
// tree on random datasets across word boundaries and on the real training
// sets of generated instances.
func TestLearnMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 63, 64, 65, 127, 400, 1000} {
		for trial := 0; trial < 40; trial++ {
			r := randomRows(rng, n, 1+rng.Intn(40))
			opts := Options{MaxDepth: rng.Intn(6), MinSamplesSplit: rng.Intn(4)}
			checkMatchesReference(t, fmt.Sprintf("random n=%d trial %d", n, trial), r, opts)
		}
	}
	// Real Σ: one tree per existential over all its features, unbounded
	// like core's trees.
	trees, leaves := 0, 0
	for _, fam := range []gen.Family{gen.FamilySAT2DQBF, gen.FamilyController, gen.FamilyEquiv} {
		for idx := 0; idx < 5; idx++ {
			named := gen.Generate(fam, idx, 1)
			in := named.DQBF
			samples := sampledSigma(t, in, 1)
			for _, y := range in.Exist {
				feats := allFeatures(in, y)
				if len(feats) == 0 {
					continue
				}
				tr := checkMatchesReference(t, fmt.Sprintf("%s y%d", named.Name, y), sigmaRows(samples, feats, y), Options{})
				trees++
				leaves += tr.Leaves()
			}
		}
	}
	t.Logf("%d trees with %d leaves over sampled training sets", trees, leaves)
}

// TestLearnIgnoresRowOrder: Learn scores splits from popcounts of row
// masks, so a tree depends only on the set of rows, not their order. Core
// relies on it: its sampler may return the same training set in another
// order (enumerated instead of drawn) without moving a certificate. The
// random datasets hold constant and copied columns, so tied Gini scores
// must break the same way in every order.
func TestLearnIgnoresRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 63, 64, 65, 127, 400, 1000} {
		for trial := 0; trial < 40; trial++ {
			r := randomRows(rng, n, 1+rng.Intn(40))
			opts := Options{MaxDepth: rng.Intn(6), MinSamplesSplit: rng.Intn(4)}
			perm := &rowData{features: r.features, rows: make([][]bool, n), labels: make([]bool, n)}
			for i, j := range rng.Perm(n) {
				perm.rows[i], perm.labels[i] = r.rows[j], r.labels[j]
			}
			a, err := learnRows(r, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := learnRows(perm, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTree(a.Root, b.Root) {
				t.Fatalf("n=%d trial %d (%d features, %+v): permuting the rows changed the tree\n--- rows in order ---\n%s--- permuted ---\n%s",
					n, trial, len(r.features), opts, a, b)
			}
		}
	}
}

// fuzzRows decodes fuzz bytes into a small dataset and options. Header:
// data[0] sets the feature count (1–12), data[1] the row count (1–256),
// data[2] MaxDepth (mod 6) and MinSamplesSplit (div 6, mod 4), and bit
// (k-1)%8 of data[3] makes column k a copy of column k-1. The remaining
// bytes, read cyclically as a bit stream, fill each row's features and then
// its label; an empty stream gives all-zero cells.
func fuzzRows(data []byte) (*rowData, Options) {
	var head [4]byte
	copy(head[:], data)
	body := data[min(len(data), 4):]
	nf, n := 1+int(head[0])%12, 1+int(head[1])
	opts := Options{MaxDepth: int(head[2]) % 6, MinSamplesSplit: int(head[2]) / 6 % 4}
	bit := 0
	next := func() bool {
		if len(body) == 0 {
			return false
		}
		b := body[bit/8%len(body)]>>(bit%8)&1 == 1
		bit++
		return b
	}
	r := &rowData{features: make([]cnf.Var, nf), rows: make([][]bool, n), labels: make([]bool, n)}
	for k := range r.features {
		r.features[k] = cnf.Var(k + 1)
	}
	for i := range r.rows {
		row := make([]bool, nf)
		for k := range row {
			if k > 0 && head[3]>>((k-1)%8)&1 == 1 {
				row[k] = row[k-1]
			} else {
				row[k] = next()
			}
		}
		r.rows[i] = row
		r.labels[i] = next()
	}
	return r, opts
}

// FuzzLearnMatchesReference requires Learn and the reference builder to
// agree on every dataset fuzzRows decodes, and the learned tree's ToFunc to
// agree with Predict on every decoded row at one gate per internal node at
// most.
func FuzzLearnMatchesReference(f *testing.F) {
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	f.Add([]byte{0, 0, 0, 0, 0xa5})                                          // one row
	f.Add(append([]byte{7, 62, 0, 0}, le(0x9e3779b97f4a7c15)...))            // 63 rows
	f.Add(append([]byte{3, 63, 13, 0}, le(0x0123456789abcdef)...))           // 64 rows, MinSamplesSplit 2
	f.Add(append([]byte{11, 64, 3, 0x55}, le(0xdeadbeefcafef00d)...))        // 65 rows, MaxDepth 3, copies
	f.Add(append([]byte{5, 126, 22, 0}, []byte("a small decision tree")...)) // 127 rows
	f.Add([]byte{9, 255, 0, 0, 0xff})                                        // all labels equal
	f.Add(append([]byte{8, 199, 1, 0xff}, le(0x5555aaaa3333cccc)...))        // duplicated columns only
	f.Add([]byte{4, 99, 5, 0})                                               // every cell zero
	f.Fuzz(func(t *testing.T, data []byte) {
		r, opts := fuzzRows(data)
		tr := checkMatchesReference(t, "fuzz", r, opts)
		b, fn := toFuncChecked(t, "fuzz", tr)
		for i, row := range r.rows {
			if a := assignOf(r.features, row); b.Eval(fn, a) != tr.Predict(a) {
				t.Fatalf("row %d: ToFunc disagrees with Predict\n%s", i, tr)
			}
		}
	})
}
