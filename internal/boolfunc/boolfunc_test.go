package boolfunc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
	"repro/internal/sat"
)

func TestConstantsAndVars(t *testing.T) {
	b := NewBuilder()
	if b.True() == b.False() {
		t.Fatal("true == false")
	}
	if b.Const(true) != b.True() || b.Const(false) != b.False() {
		t.Fatal("Const not interned")
	}
	if b.Var(1) != b.Var(1) {
		t.Fatal("Var not hash-consed")
	}
	if b.Var(1) == b.Var(2) {
		t.Fatal("distinct vars merged")
	}
}

func TestLocalSimplification(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(1), b.Var(2)
	cases := []struct {
		name string
		got  Node
		want Node
	}{
		{"not not", b.Not(b.Not(x)), x},
		{"and true", b.And(x, b.True()), x},
		{"and false", b.And(x, b.False()), b.False()},
		{"and idem", b.And(x, x), x},
		{"and compl", b.And(x, b.Not(x)), b.False()},
		{"or true", b.Or(x, b.True()), b.True()},
		{"or false", b.Or(x, b.False()), x},
		{"or idem", b.Or(x, x), x},
		{"or compl", b.Or(x, b.Not(x)), b.True()},
		{"xor self", b.Xor(x, x), b.False()},
		{"xor compl", b.Xor(x, b.Not(x)), b.True()},
		{"xor false", b.Xor(x, b.False()), x},
		{"xor true", b.Xor(x, b.True()), b.Not(x)},
		{"ite same", b.Ite(x, y, y), y},
		{"ite 1 0", b.Ite(x, b.True(), b.False()), x},
		{"ite 0 1", b.Ite(x, b.False(), b.True()), b.Not(x)},
		{"ite const cond", b.Ite(b.True(), x, y), x},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s want %s", c.name, b.String(c.got), b.String(c.want))
		}
	}
}

func TestHashConsingCommutes(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(1), b.Var(2)
	if b.And(x, y) != b.And(y, x) {
		t.Fatal("And not commutative under hash-consing")
	}
	if b.Or(x, y) != b.Or(y, x) {
		t.Fatal("Or not commutative under hash-consing")
	}
	if b.Xor(x, y) != b.Xor(y, x) {
		t.Fatal("Xor not commutative under hash-consing")
	}
}

func TestEvalBasic(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var(1), b.Var(2), b.Var(3)
	f := b.Or(b.And(x, y), b.Not(z)) // (x∧y) ∨ ¬z
	for mask := 0; mask < 8; mask++ {
		a := cnf.NewAssignment(3)
		xv, yv, zv := mask&1 != 0, mask&2 != 0, mask&4 != 0
		a.SetBool(1, xv)
		a.SetBool(2, yv)
		a.SetBool(3, zv)
		want := (xv && yv) || !zv
		if got := b.Eval(f, a); got != want {
			t.Fatalf("mask %d: got %v want %v", mask, got, want)
		}
	}
}

// randomNode builds a random function over vars 1..nVars.
func randomNode(b *Builder, rng *rand.Rand, nVars, depth int) Node {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(3) {
		case 0:
			return b.Const(rng.Intn(2) == 0)
		default:
			return b.Var(cnf.Var(1 + rng.Intn(nVars)))
		}
	}
	switch rng.Intn(5) {
	case 0:
		return b.Not(randomNode(b, rng, nVars, depth-1))
	case 1:
		return b.And(randomNode(b, rng, nVars, depth-1), randomNode(b, rng, nVars, depth-1))
	case 2:
		return b.Or(randomNode(b, rng, nVars, depth-1), randomNode(b, rng, nVars, depth-1))
	case 3:
		return b.Xor(randomNode(b, rng, nVars, depth-1), randomNode(b, rng, nVars, depth-1))
	default:
		return b.Ite(randomNode(b, rng, nVars, depth-1),
			randomNode(b, rng, nVars, depth-1), randomNode(b, rng, nVars, depth-1))
	}
}

func TestToCNFMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		b := NewBuilder()
		nVars := 1 + rng.Intn(5)
		f := randomNode(b, rng, nVars, 4)
		dst := cnf.New(nVars)
		out := b.ToCNF(f, dst, CNFOptions{})
		// For every assignment of the original vars, SAT-extend and compare.
		for mask := 0; mask < 1<<nVars; mask++ {
			s := sat.New()
			s.AddFormula(dst)
			assumps := make([]cnf.Lit, 0, nVars+1)
			a := cnf.NewAssignment(nVars)
			for v := 1; v <= nVars; v++ {
				bit := mask&(1<<(v-1)) != 0
				a.SetBool(cnf.Var(v), bit)
				assumps = append(assumps, cnf.MkLit(cnf.Var(v), bit))
			}
			want := b.Eval(f, a)
			// out must be forced to the eval value.
			st := s.SolveAssume(append(assumps, out))
			if want && st != sat.Sat {
				t.Fatalf("trial %d mask %d: out should be satisfiable-true", trial, mask)
			}
			if !want && st != sat.Unsat {
				t.Fatalf("trial %d mask %d: out should be forced false (got %v) f=%s", trial, mask, st, b.String(f))
			}
		}
	}
}

func TestToCNFVarMapping(t *testing.T) {
	b := NewBuilder()
	f := b.And(b.Var(1), b.Var(2))
	dst := cnf.New(10)
	out := b.ToCNF(f, dst, CNFOptions{VarFor: func(v cnf.Var) cnf.Var { return v + 5 }})
	s := sat.New()
	s.AddFormula(dst)
	if st := s.SolveAssume([]cnf.Lit{out, -6}); st != sat.Unsat {
		t.Fatalf("mapped var 6 should be forced: %v", st)
	}
	if st := s.SolveAssume([]cnf.Lit{out, 6, 7}); st != sat.Sat {
		t.Fatalf("mapped output should be satisfiable: %v", st)
	}
}

func TestSubstitute(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var(1), b.Var(2), b.Var(3)
	f := b.Or(x, b.And(y, z))
	// y := ¬x, z := x — result: x ∨ (¬x ∧ x) = x
	g := b.Substitute(f, map[cnf.Var]Node{2: b.Not(x), 3: x})
	if g != x {
		t.Fatalf("substitution result: %s, want v1", b.String(g))
	}
}

func TestSubstituteSimultaneous(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(1), b.Var(2)
	f := b.Xor(x, y)
	// Swap x and y simultaneously: f is symmetric so unchanged.
	g := b.Substitute(f, map[cnf.Var]Node{1: y, 2: x})
	if g != f {
		t.Fatalf("simultaneous swap changed xor: %s", b.String(g))
	}
	// x := y, y := x applied to x∧¬y should give y∧¬x, not y∧¬y.
	h := b.Substitute(b.And(x, b.Not(y)), map[cnf.Var]Node{1: y, 2: x})
	want := b.And(y, b.Not(x))
	if h != want {
		t.Fatalf("simultaneous subst broken: %s want %s", b.String(h), b.String(want))
	}
}

func TestSubstituteProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 2 + rng.Intn(3)
		f := randomNode(b, rng, n, 4)
		repl := randomNode(b, rng, n, 3)
		target := cnf.Var(1 + rng.Intn(n))
		g := b.Substitute(f, map[cnf.Var]Node{target: repl})
		for mask := 0; mask < 1<<n; mask++ {
			a := cnf.NewAssignment(n)
			for v := 1; v <= n; v++ {
				a.SetBool(cnf.Var(v), mask&(1<<(v-1)) != 0)
			}
			// Eval g directly vs eval f with target set to repl's value.
			a2 := a.Clone()
			a2.SetBool(target, b.Eval(repl, a))
			if b.Eval(g, a) != b.Eval(f, a2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSupport(t *testing.T) {
	b := NewBuilder()
	f := b.Or(b.Var(3), b.And(b.Var(1), b.Not(b.Var(3))))
	sup := b.Support(f)
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("support: %v", sup)
	}
	if len(b.Support(b.True())) != 0 {
		t.Fatal("constant has nonempty support")
	}
}

func TestNodeCountSharing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(1), b.Var(2)
	shared := b.And(x, y)
	f := b.Or(shared, b.Not(shared))
	// Or(a, ¬a) simplifies to true.
	if f != b.True() {
		t.Fatalf("complement law missed: %s", b.String(f))
	}
	g := b.Xor(shared, b.Or(shared, x))
	if b.NodeCount(g) >= b.NodeCount(shared)+b.NodeCount(b.Or(shared, x))+1 {
		t.Fatal("no sharing in DAG")
	}
}

func TestCube(t *testing.T) {
	b := NewBuilder()
	f := b.Cube([]cnf.Lit{1, -2, 3})
	a := cnf.NewAssignment(3)
	a.SetBool(1, true)
	a.SetBool(2, false)
	a.SetBool(3, true)
	if !b.Eval(f, a) {
		t.Fatal("cube not satisfied by its own literals")
	}
	a.SetBool(2, true)
	if b.Eval(f, a) {
		t.Fatal("cube satisfied by wrong assignment")
	}
	if b.Cube(nil) != b.True() {
		t.Fatal("empty cube should be true")
	}
}

func TestFromTruthTable(t *testing.T) {
	b := NewBuilder()
	inputs := []cnf.Var{1, 2, 3}
	// f = majority(x1,x2,x3)
	table := make([]bool, 8)
	for row := 0; row < 8; row++ {
		cnt := 0
		for j := 0; j < 3; j++ {
			if row&(1<<j) != 0 {
				cnt++
			}
		}
		table[row] = cnt >= 2
	}
	f, err := b.FromTruthTable(inputs, table)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 8; row++ {
		a := cnf.NewAssignment(3)
		for j := 0; j < 3; j++ {
			a.SetBool(inputs[j], row&(1<<j) != 0)
		}
		if b.Eval(f, a) != table[row] {
			t.Fatalf("row %d: got %v want %v", row, b.Eval(f, a), table[row])
		}
	}
	if _, err := b.FromTruthTable(inputs, make([]bool, 7)); err == nil {
		t.Fatal("bad table length not rejected")
	}
}

func TestFromTruthTableProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 1 + rng.Intn(4)
		inputs := make([]cnf.Var, n)
		for i := range inputs {
			inputs[i] = cnf.Var(i + 1)
		}
		table := make([]bool, 1<<n)
		for i := range table {
			table[i] = rng.Intn(2) == 0
		}
		f, err := b.FromTruthTable(inputs, table)
		if err != nil {
			return false
		}
		for row := range table {
			a := cnf.NewAssignment(n)
			for j := 0; j < n; j++ {
				a.SetBool(inputs[j], row&(1<<j) != 0)
			}
			if b.Eval(f, a) != table[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	b := NewBuilder()
	f := b.And(b.Var(1), b.Not(b.Var(2)))
	s := b.String(f)
	if s != "(v1 & ~v2)" && s != "(~v2 & v1)" {
		t.Fatalf("unexpected rendering: %s", s)
	}
	if b.String(b.True()) != "1" || b.String(b.False()) != "0" {
		t.Fatal("constant rendering broken")
	}
	// Every operator's text, which certificates and their hashes are made of.
	g := NewBuilder()
	h := g.Ite(g.Var(3), g.Or(g.Var(1), g.Var(2)), g.Xor(g.Var(1), g.Not(g.Var(4))))
	if s, want := g.String(g.And(h, g.Var(5))), "(ite(v3, (v1 | v2), (v1 ^ ~v4)) & v5)"; s != want {
		t.Fatalf("rendering %q, want %q", s, want)
	}
}

func TestBuilderSizeGrowth(t *testing.T) {
	b := NewBuilder()
	base := b.Size()
	x := b.Var(1)
	_ = b.And(x, b.Var(2))
	if b.Size() <= base {
		t.Fatal("Size did not grow")
	}
	before := b.Size()
	_ = b.And(b.Var(2), x) // same node, commuted
	if b.Size() != before {
		t.Fatal("hash-consing failed to dedupe")
	}
}
