// Package boolfunc provides a hash-consed DAG representation of Boolean
// functions with construction, composition, evaluation, simplification, and
// Tseitin CNF encoding. It stands in for the ABC logic-manipulation library
// used by the Manthan3 paper to represent and rewrite candidate Henkin
// functions.
//
// Functions are built over named inputs identified by cnf.Var. Structural
// hashing plus constant folding and local simplification rules keep the DAG
// compact under the repeated strengthen/weaken rewrites of the repair loop.
//
// Nodes live in a contiguous arena owned by the Builder and are addressed by
// uint32 ids (the exported Node handle): one append-only record slice holds
// every node with its kid ids inlined, so interning an already-seen
// expression allocates nothing and building a new one costs only amortized
// slice growth — the repair loop's strengthen/weaken rewrites run
// allocation-free against a warm arena. Walkers (Eval, Support, NodeCount,
// ToCNF) are Builder methods memoized through epoch-stamped side tables
// instead of per-call maps for the same reason.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package boolfunc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cnf"
)

// Op is the kind of a node.
type Op uint8

// Node kinds.
const (
	OpConst Op = iota // constant payload
	OpVar             // input-variable payload
	OpNot
	OpAnd
	OpOr
	OpXor
	OpIte // kid0 ? kid1 : kid2
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpIte:
		return "ite"
	}
	return "?"
}

// Node is a handle to an immutable function-DAG node: an index into its
// Builder's node arena. Handles are only meaningful together with the
// Builder that produced them; equal handles from one builder denote the
// same function (hash-consing canonicalizes construction). The zero value
// is None, the null handle.
type Node uint32

// None is the null Node handle (no function).
const None Node = 0

// Valid reports whether the handle denotes a node (is not None).
func (n Node) Valid() bool { return n != None }

// node is one arena record. Kid ids are inlined (OpIte is the widest node);
// v doubles as the OpVar payload.
type node struct {
	kids [3]Node
	v    int32 // input variable for OpVar
	op   Op
	val  bool // constant value for OpConst
}

// nodeKey is the comparable interning key: op, payload, and up to three kid
// ids. A flat struct key keeps interning allocation-free on the repair
// loop's hot strengthen/weaken path.
type nodeKey struct {
	op         Op
	value      bool
	v          cnf.Var
	k0, k1, k2 Node
}

// Builder owns the node arena and hash-conses nodes into it. All nodes
// combined by a builder's operations must originate from the same builder.
// A Builder (including its walker methods) must not be used from multiple
// goroutines concurrently.
type Builder struct {
	recs  []node // arena; index 0 is reserved for None
	index map[nodeKey]Node
	tru   Node
	fls   Node

	// Epoch-stamped walker memoization: stamp[n] == epoch marks node n as
	// visited in the current walk, with its result in the matching memo
	// table. Bumping the epoch invalidates every entry at once, so repeated
	// Eval/Support/ToCNF calls reuse the tables without clearing them.
	epoch    uint32
	stamp    []uint32
	evalMemo []bool
	cnfMemo  Cache // scratch cache for ToCNF calls without a persistent one
}

// NewBuilder returns a fresh builder with interned constants.
func NewBuilder() *Builder {
	b := &Builder{
		recs:  make([]node, 1, 64), // recs[0] = None sentinel
		index: make(map[nodeKey]Node),
		epoch: 1,
	}
	b.tru = b.intern(node{op: OpConst, val: true})
	b.fls = b.intern(node{op: OpConst, val: false})
	return b
}

func (b *Builder) key(r node) nodeKey {
	return nodeKey{op: r.op, value: r.val, v: cnf.Var(r.v), k0: r.kids[0], k1: r.kids[1], k2: r.kids[2]}
}

func (b *Builder) intern(r node) Node {
	k := b.key(r)
	if old, ok := b.index[k]; ok {
		return old
	}
	n := Node(len(b.recs))
	b.recs = append(b.recs, r)
	b.index[k] = n
	return n
}

// rec returns the arena record of n. None panics (index 0 holds a zero
// record, which would silently evaluate as constant false otherwise).
func (b *Builder) rec(n Node) *node {
	if n == None {
		panic("boolfunc: use of None handle")
	}
	return &b.recs[n]
}

// Op returns the kind of n.
func (b *Builder) Op(n Node) Op { return b.rec(n).op }

// Size returns the number of distinct nodes interned so far.
func (b *Builder) Size() int { return len(b.recs) - 1 }

// Const returns the constant node for v.
func (b *Builder) Const(v bool) Node {
	if v {
		return b.tru
	}
	return b.fls
}

// True returns the constant-true node.
func (b *Builder) True() Node { return b.tru }

// False returns the constant-false node.
func (b *Builder) False() Node { return b.fls }

// Var returns the input node for variable v.
func (b *Builder) Var(v cnf.Var) Node {
	return b.intern(node{op: OpVar, v: int32(v)})
}

// Lit returns the node for a literal: Var(v) or Not(Var(v)).
func (b *Builder) Lit(l cnf.Lit) Node {
	n := b.Var(l.Var())
	if !l.IsPos() {
		n = b.Not(n)
	}
	return n
}

// Not returns ¬a with local simplification.
func (b *Builder) Not(a Node) Node {
	ra := b.rec(a)
	switch ra.op {
	case OpConst:
		return b.Const(!ra.val)
	case OpNot:
		return ra.kids[0]
	}
	return b.intern(node{op: OpNot, kids: [3]Node{a, None, None}})
}

// isNotOf reports whether m is ¬n (syntactically).
func (b *Builder) isNotOf(m, n Node) bool {
	rm := b.rec(m)
	return rm.op == OpNot && rm.kids[0] == n
}

// And returns a ∧ b with constant folding and idempotence/complement rules.
func (b *Builder) And(x, y Node) Node {
	if rx := b.rec(x); rx.op == OpConst {
		if rx.val {
			return y
		}
		return b.fls
	}
	if ry := b.rec(y); ry.op == OpConst {
		if ry.val {
			return x
		}
		return b.fls
	}
	if x == y {
		return x
	}
	if b.isNotOf(x, y) || b.isNotOf(y, x) {
		return b.fls
	}
	if y < x { // canonical order for hashing (ids are creation-ordered)
		x, y = y, x
	}
	return b.intern(node{op: OpAnd, kids: [3]Node{x, y, None}})
}

// Or returns a ∨ b with local simplification.
func (b *Builder) Or(x, y Node) Node {
	if rx := b.rec(x); rx.op == OpConst {
		if rx.val {
			return b.tru
		}
		return y
	}
	if ry := b.rec(y); ry.op == OpConst {
		if ry.val {
			return b.tru
		}
		return x
	}
	if x == y {
		return x
	}
	if b.isNotOf(x, y) || b.isNotOf(y, x) {
		return b.tru
	}
	if y < x {
		x, y = y, x
	}
	return b.intern(node{op: OpOr, kids: [3]Node{x, y, None}})
}

// Xor returns a ⊕ b with local simplification.
func (b *Builder) Xor(x, y Node) Node {
	if rx := b.rec(x); rx.op == OpConst {
		if rx.val {
			return b.Not(y)
		}
		return y
	}
	if ry := b.rec(y); ry.op == OpConst {
		if ry.val {
			return b.Not(x)
		}
		return x
	}
	if x == y {
		return b.fls
	}
	if b.isNotOf(x, y) || b.isNotOf(y, x) {
		return b.tru
	}
	if y < x {
		x, y = y, x
	}
	return b.intern(node{op: OpXor, kids: [3]Node{x, y, None}})
}

// Ite returns c ? t : e with local simplification.
func (b *Builder) Ite(c, t, e Node) Node {
	if rc := b.rec(c); rc.op == OpConst {
		if rc.val {
			return t
		}
		return e
	}
	if t == e {
		return t
	}
	rt, re := b.rec(t), b.rec(e)
	if rt.op == OpConst && re.op == OpConst {
		// t=1,e=0 → c ; t=0,e=1 → ¬c
		if rt.val {
			return c
		}
		return b.Not(c)
	}
	if rt.op == OpConst && rt.val {
		return b.Or(c, e)
	}
	if rt.op == OpConst && !rt.val {
		return b.And(b.Not(c), e)
	}
	if re.op == OpConst && re.val {
		return b.Or(b.Not(c), t)
	}
	if re.op == OpConst && !re.val {
		return b.And(c, t)
	}
	return b.intern(node{op: OpIte, kids: [3]Node{c, t, e}})
}

// AndN folds And over the list; empty list yields true.
func (b *Builder) AndN(xs []Node) Node {
	out := b.tru
	for _, x := range xs {
		out = b.And(out, x)
	}
	return out
}

// OrN folds Or over the list; empty list yields false.
func (b *Builder) OrN(xs []Node) Node {
	out := b.fls
	for _, x := range xs {
		out = b.Or(out, x)
	}
	return out
}

// Cube returns the conjunction of literals.
func (b *Builder) Cube(lits []cnf.Lit) Node {
	out := b.tru
	for _, l := range lits {
		out = b.And(out, b.Lit(l))
	}
	return out
}

// beginWalk starts a new epoch-stamped walk and returns the stamp/memo
// tables grown to cover the current arena.
func (b *Builder) beginWalk() {
	b.epoch++
	if b.epoch == 0 { // wrapped: stale stamps could collide, reset them
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.epoch = 1
	}
	if len(b.stamp) < len(b.recs) {
		b.stamp = append(b.stamp, make([]uint32, len(b.recs)-len(b.stamp))...)
	}
}

// Eval evaluates the function under an assignment of its input variables.
// Unassigned inputs evaluate as false. The memo table is builder-owned, so
// repeated evaluation allocates nothing once the tables are warm.
func (b *Builder) Eval(n Node, a cnf.Assignment) bool {
	b.beginWalk()
	if len(b.evalMemo) < len(b.recs) {
		b.evalMemo = append(b.evalMemo, make([]bool, len(b.recs)-len(b.evalMemo))...)
	}
	return b.evalRec(n, a)
}

func (b *Builder) evalRec(n Node, a cnf.Assignment) bool {
	if b.stamp[n] == b.epoch {
		return b.evalMemo[n]
	}
	r := &b.recs[n]
	var out bool
	switch r.op {
	case OpConst:
		out = r.val
	case OpVar:
		out = a.Get(cnf.Var(r.v)) == cnf.True
	case OpNot:
		out = !b.evalRec(r.kids[0], a)
	case OpAnd:
		out = b.evalRec(r.kids[0], a) && b.evalRec(r.kids[1], a)
	case OpOr:
		out = b.evalRec(r.kids[0], a) || b.evalRec(r.kids[1], a)
	case OpXor:
		out = b.evalRec(r.kids[0], a) != b.evalRec(r.kids[1], a)
	case OpIte:
		if b.evalRec(r.kids[0], a) {
			out = b.evalRec(r.kids[1], a)
		} else {
			out = b.evalRec(r.kids[2], a)
		}
	}
	b.stamp[n] = b.epoch
	b.evalMemo[n] = out
	return out
}

// Support returns the sorted set of input variables the function depends on
// syntactically.
func (b *Builder) Support(n Node) []cnf.Var {
	out := b.AppendSupport(nil, n)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AppendSupport appends the input variables reachable from n to dst and
// returns the extended slice, in deterministic DFS discovery order (NOT
// sorted). Each variable appears once. The zero-allocation form of Support
// for hot paths that own a reusable buffer and don't need sorted output.
func (b *Builder) AppendSupport(dst []cnf.Var, n Node) []cnf.Var {
	b.beginWalk()
	return b.supportRec(dst, n)
}

func (b *Builder) supportRec(dst []cnf.Var, n Node) []cnf.Var {
	if b.stamp[n] == b.epoch {
		return dst
	}
	b.stamp[n] = b.epoch
	r := &b.recs[n]
	if r.op == OpVar {
		return append(dst, cnf.Var(r.v))
	}
	for _, k := range r.kids {
		if k == None {
			break
		}
		dst = b.supportRec(dst, k)
	}
	return dst
}

// NodeCount returns the number of distinct DAG nodes reachable from n.
func (b *Builder) NodeCount(n Node) int {
	b.beginWalk()
	return b.countRec(n)
}

func (b *Builder) countRec(n Node) int {
	if b.stamp[n] == b.epoch {
		return 0
	}
	b.stamp[n] = b.epoch
	total := 1
	r := &b.recs[n]
	for _, k := range r.kids {
		if k == None {
			break
		}
		total += b.countRec(k)
	}
	return total
}

// Substitute returns n with every occurrence of the variables in subst
// replaced by the corresponding function. Substitution is simultaneous, not
// sequential. The result is built in builder b (which must own n and the
// replacement nodes).
func (b *Builder) Substitute(n Node, subst map[cnf.Var]Node) Node {
	memo := make(map[Node]Node)
	var walk func(Node) Node
	walk = func(m Node) Node {
		if r, ok := memo[m]; ok {
			return r
		}
		rm := b.rec(m)
		var out Node
		switch rm.op {
		case OpConst:
			out = m
		case OpVar:
			if r, ok := subst[cnf.Var(rm.v)]; ok {
				out = r
			} else {
				out = m
			}
		case OpNot:
			out = b.Not(walk(rm.kids[0]))
		case OpAnd:
			out = b.And(walk(rm.kids[0]), walk(rm.kids[1]))
		case OpOr:
			out = b.Or(walk(rm.kids[0]), walk(rm.kids[1]))
		case OpXor:
			out = b.Xor(walk(rm.kids[0]), walk(rm.kids[1]))
		case OpIte:
			out = b.Ite(walk(rm.kids[0]), walk(rm.kids[1]), walk(rm.kids[2]))
		}
		// rm may be stale after the recursive walks grew the arena; it is not
		// used past this point.
		memo[m] = out
		return out
	}
	return walk(n)
}

// Cache persists node → output-literal memoization across ToCNF calls: a
// flat table indexed by node id (cnf.Lit's zero value marks absent entries,
// which is sound because no valid literal is 0). Nodes already present are
// not re-encoded — no clauses added — so incremental callers pay only for
// the DAG delta. All calls sharing a cache must target the same variable
// space and use the same VarFor mapping, and the previously added clauses
// must still be live.
type Cache struct {
	lits []cnf.Lit
}

func (c *Cache) get(n Node) cnf.Lit {
	if int(n) < len(c.lits) {
		return c.lits[n]
	}
	return 0
}

func (c *Cache) set(n Node, l cnf.Lit) {
	if int(n) >= len(c.lits) {
		grown := make([]cnf.Lit, int(n)+1+len(c.lits)/2)
		copy(grown, c.lits)
		c.lits = grown
	}
	c.lits[n] = l
}

// Reset forgets every cached encoding but keeps the table's capacity.
func (c *Cache) Reset() {
	for i := range c.lits {
		c.lits[i] = 0
	}
}

// CNFOptions configures Tseitin encoding.
type CNFOptions struct {
	// VarFor maps function inputs to CNF variables in the target formula.
	// Nil means identity (input v is CNF variable v).
	VarFor func(cnf.Var) cnf.Var
	// Cache, when non-nil, persists memoization across ToCNF calls (see
	// Cache). Nil uses a builder-owned scratch table valid for this call
	// only.
	Cache *Cache
}

// ToCNF Tseitin-encodes the function into dst, returning a literal out such
// that dst's added clauses assert out ↔ n over the mapped input variables.
// Fresh auxiliary variables are allocated from dst.
func (b *Builder) ToCNF(n Node, dst *cnf.Formula, opt CNFOptions) cnf.Lit {
	memo := opt.Cache
	if memo == nil {
		memo = &b.cnfMemo
		memo.Reset()
		if len(memo.lits) < len(b.recs) {
			memo.lits = append(memo.lits, make([]cnf.Lit, len(b.recs)-len(memo.lits))...)
		}
	}
	return b.toCNFRec(n, dst, opt.VarFor, memo)
}

func (b *Builder) toCNFRec(m Node, dst *cnf.Formula, varFor func(cnf.Var) cnf.Var, memo *Cache) cnf.Lit {
	if l := memo.get(m); l != 0 {
		return l
	}
	r := &b.recs[m]
	var out cnf.Lit
	switch r.op {
	case OpConst:
		v := dst.NewVar()
		out = cnf.PosLit(v)
		if r.val {
			dst.AddUnit(out)
		} else {
			dst.AddUnit(out.Neg())
		}
	case OpVar:
		mv := cnf.Var(r.v)
		if varFor != nil {
			mv = varFor(mv)
		}
		out = cnf.PosLit(mv)
	case OpNot:
		out = b.toCNFRec(r.kids[0], dst, varFor, memo).Neg()
	case OpAnd:
		a, b2 := b.toCNFRec(r.kids[0], dst, varFor, memo), b.toCNFRec(r.kids[1], dst, varFor, memo)
		out = cnf.PosLit(dst.NewVar())
		dst.AddAnd(out, a, b2)
	case OpOr:
		a, b2 := b.toCNFRec(r.kids[0], dst, varFor, memo), b.toCNFRec(r.kids[1], dst, varFor, memo)
		out = cnf.PosLit(dst.NewVar())
		dst.AddOr(out, a, b2)
	case OpXor:
		a, b2 := b.toCNFRec(r.kids[0], dst, varFor, memo), b.toCNFRec(r.kids[1], dst, varFor, memo)
		out = cnf.PosLit(dst.NewVar())
		dst.AddXor(out, a, b2)
	case OpIte:
		c := b.toCNFRec(r.kids[0], dst, varFor, memo)
		tl := b.toCNFRec(r.kids[1], dst, varFor, memo)
		el := b.toCNFRec(r.kids[2], dst, varFor, memo)
		out = cnf.PosLit(dst.NewVar())
		// out ↔ (c→t) ∧ (¬c→e)
		dst.AddClause(out.Neg(), c.Neg(), tl)
		dst.AddClause(out.Neg(), c, el)
		dst.AddClause(out, c.Neg(), tl.Neg())
		dst.AddClause(out, c, el.Neg())
	}
	memo.set(m, out)
	return out
}

// String renders the function as a readable infix expression with variables
// shown as v<N>.
func (b *Builder) String(n Node) string {
	var sb strings.Builder
	b.writeExpr(n, &sb)
	return sb.String()
}

func (b *Builder) writeExpr(n Node, sb *strings.Builder) {
	r := b.rec(n)
	switch r.op {
	case OpConst:
		if r.val {
			sb.WriteString("1")
		} else {
			sb.WriteString("0")
		}
	case OpVar:
		fmt.Fprintf(sb, "v%d", r.v)
	case OpNot:
		sb.WriteString("~")
		b.writeExpr(r.kids[0], sb)
	case OpAnd, OpOr, OpXor:
		op := map[Op]string{OpAnd: " & ", OpOr: " | ", OpXor: " ^ "}[r.op]
		sb.WriteString("(")
		b.writeExpr(r.kids[0], sb)
		sb.WriteString(op)
		b.writeExpr(r.kids[1], sb)
		sb.WriteString(")")
	case OpIte:
		sb.WriteString("ite(")
		b.writeExpr(r.kids[0], sb)
		sb.WriteString(", ")
		b.writeExpr(r.kids[1], sb)
		sb.WriteString(", ")
		b.writeExpr(r.kids[2], sb)
		sb.WriteString(")")
	}
}

// FromTruthTable builds a function over inputs (in order) from a truth table
// of length 2^len(inputs); bit i of the table is the output for the input
// assignment whose bit j gives the value of inputs[j]. A small Shannon-
// expansion construction with hash-consing keeps common subfunctions shared.
func (b *Builder) FromTruthTable(inputs []cnf.Var, table []bool) (Node, error) {
	if len(table) != 1<<uint(len(inputs)) {
		return None, fmt.Errorf("boolfunc: table length %d does not match %d inputs", len(table), len(inputs))
	}
	var build func(level int, offset int) Node
	build = func(level, offset int) Node {
		if level == len(inputs) {
			return b.Const(table[offset])
		}
		// inputs[level] selects between two half-tables; bit `level` of the
		// row index gives the variable's value.
		lo := build(level+1, offset)          // inputs[level] = 0
		hi := build(level+1, offset|1<<level) // inputs[level] = 1
		return b.Ite(b.Var(inputs[level]), hi, lo)
	}
	return build(0, 0), nil
}
