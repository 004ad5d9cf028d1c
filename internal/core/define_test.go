package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// randomDeps returns a random subset of xs.
func randomDeps(rng *rand.Rand, xs []cnf.Var) []cnf.Var {
	var d []cnf.Var
	for _, x := range xs {
		if rng.Intn(2) == 0 {
			d = append(d, x)
		}
	}
	return d
}

// randomGate returns an AND, OR, XOR, ITE or equivalence over nodes picked
// from pool.
func randomGate(rng *rand.Rand, b *boolfunc.Builder, pool []boolfunc.Node) boolfunc.Node {
	pick := func() boolfunc.Node {
		n := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			n = b.Not(n)
		}
		return n
	}
	switch rng.Intn(5) {
	case 0:
		return b.And(pick(), pick())
	case 1:
		return b.Or(pick(), pick())
	case 2:
		return b.Xor(pick(), pick())
	case 3:
		return b.Ite(pick(), pick(), pick())
	default:
		return pick()
	}
}

// randomGateInstance builds a small DQBF mixing Tseitin-encoded gates with
// random clauses: named existentials over random dependency sets, each
// tied to a random gate by equivalence or implication, a free-standing gate
// chain, and a few random clauses. Every Tseitin auxiliary gets a random
// dependency set too, so many gates have inputs outside their output's
// H(z) or inputs that depend on the output.
func randomGateInstance(rng *rand.Rand) *dqbf.Instance {
	in := dqbf.NewInstance()
	nX := 2 + rng.Intn(2)
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	nY := 1 + rng.Intn(2)
	for j := 0; j < nY; j++ {
		in.AddExist(cnf.Var(nX+j+1), randomDeps(rng, in.Univ))
	}
	b := boolfunc.NewBuilder()
	pool := make([]boolfunc.Node, 0, nX+nY)
	for v := 1; v <= nX+nY; v++ {
		pool = append(pool, b.Var(cnf.Var(v)))
	}
	for _, y := range in.Exist[:nY] {
		out := b.ToCNF(randomGate(rng, b, pool), in.Matrix, boolfunc.CNFOptions{})
		if rng.Intn(3) == 0 {
			in.Matrix.AddClause(cnf.NegLit(y), out)
		} else {
			in.Matrix.AddEquivLit(cnf.PosLit(y), out)
		}
	}
	chain := randomGate(rng, b, pool)
	chain = randomGate(rng, b, append(pool, chain))
	in.Matrix.AddClause(b.ToCNF(chain, in.Matrix, boolfunc.CNFOptions{}), cnf.PosLit(cnf.Var(1+rng.Intn(nX))))
	for c := rng.Intn(3); c > 0; c-- {
		k := 2 + rng.Intn(2)
		lits := make([]cnf.Lit, k)
		for i := range lits {
			lits[i] = cnf.MkLit(cnf.Var(1+rng.Intn(in.Matrix.NumVars)), rng.Intn(2) == 0)
		}
		in.Matrix.AddClause(lits...)
	}
	for v := nX + nY + 1; v <= in.Matrix.NumVars; v++ {
		deps := in.Univ
		if rng.Intn(3) == 0 {
			deps = randomDeps(rng, in.Univ)
		}
		in.AddExist(cnf.Var(v), deps)
	}
	return in
}

// checkDefinitions brute-forces the definitions step's contract on e after
// defineGates: every defined z equals its function on every model of ϕ,
// references only variables it may (universals of H(z), existentials whose
// dependency sets lie inside H(z)), and no reference cycle exists. It
// returns the number of definitions.
func checkDefinitions(t *testing.T, name string, e *Engine) int {
	t.Helper()
	in := e.in
	n := in.Matrix.NumVars
	a := cnf.NewAssignment(n)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			a.SetBool(cnf.Var(v), mask>>(v-1)&1 != 0)
		}
		if !in.Matrix.Eval(a) {
			continue
		}
		for _, z := range in.Exist {
			if e.fixed[z] && e.b.Eval(e.funcs[z], a) != (a.Get(z) == cnf.True) {
				t.Fatalf("%s: y%d := %s is wrong on a model of ϕ", name, z, e.b.String(e.funcs[z]))
			}
		}
	}
	refs := make(map[cnf.Var][]cnf.Var)
	for _, z := range in.Exist {
		if !e.fixed[z] {
			continue
		}
		for _, v := range e.b.Support(e.funcs[z]) {
			switch {
			case !in.IsExist(v):
				if !in.DepContains(z, v) {
					t.Fatalf("%s: y%d := %s reads x%d outside H(y%d)", name, z, e.b.String(e.funcs[z]), v, z)
				}
			case !in.SubsetDeps(v, z):
				t.Fatalf("%s: y%d := %s reads y%d, whose dependencies exceed H(y%d)", name, z, e.b.String(e.funcs[z]), v, z)
			default:
				refs[z] = append(refs[z], v)
			}
		}
	}
	state := make(map[cnf.Var]int) // 1 on the DFS stack, 2 done
	var visit func(v cnf.Var)
	visit = func(v cnf.Var) {
		state[v] = 1
		for _, w := range refs[v] {
			if state[w] == 1 {
				t.Fatalf("%s: definitions close a reference cycle through y%d and y%d", name, v, w)
			}
			if state[w] == 0 {
				visit(w)
			}
		}
		state[v] = 2
	}
	for _, z := range in.Exist {
		if state[z] == 0 {
			visit(z)
		}
	}
	return e.stats.DefinedVars
}

// TestDefinitionsHoldOnEveryModel runs the definitions step alone on random
// small instances and brute-forces its contract (see checkDefinitions).
func TestDefinitionsHoldOnEveryModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	defined, instances := 0, 0
	for instances < 300 {
		in := randomGateInstance(rng)
		if in.Matrix.NumVars > 14 {
			continue
		}
		instances++
		e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
		if err := e.defineGates(); err != nil {
			t.Fatal(err)
		}
		defined += checkDefinitions(t, in.Matrix.String(), e)
	}
	if defined < instances {
		t.Fatalf("only %d definitions over %d instances: the check is close to vacuous", defined, instances)
	}
	t.Logf("%d definitions over %d instances", defined, instances)
}

// TestDefinitionsRespectDependencies pins which gates the definitions step
// accepts: a gate whose inputs lie outside H(z), or whose existential input
// has a larger dependency set, or that would close a reference cycle, is
// rejected; an AND over H(z) and an ITE, which needs a pair of clauses, are
// accepted.
func TestDefinitionsRespectDependencies(t *testing.T) {
	b := boolfunc.NewBuilder()
	gate := func(in *dqbf.Instance, z cnf.Var, f boolfunc.Node) {
		in.Matrix.AddEquivLit(cnf.PosLit(z), b.ToCNF(f, in.Matrix, boolfunc.CNFOptions{}))
	}
	for _, c := range []struct {
		name  string
		build func() *dqbf.Instance
		want  string // the defined variables, as "y<N>" in declaration order
	}{
		{"and-outside-H", func() *dqbf.Instance {
			in := dqbf.NewInstance()
			in.AddUniv(1)
			in.AddUniv(2)
			in.AddExist(3, []cnf.Var{1})
			in.Matrix.AddAnd(cnf.PosLit(3), 1, 2)
			return in
		}, ""},
		{"and-inside-H", func() *dqbf.Instance {
			in := dqbf.NewInstance()
			in.AddUniv(1)
			in.AddUniv(2)
			in.AddExist(3, []cnf.Var{1, 2})
			in.Matrix.AddAnd(cnf.PosLit(3), 1, 2)
			return in
		}, "y3"},
		{"wider-existential-input", func() *dqbf.Instance {
			// y3 ↔ ¬y4 with H(y3) ⊂ H(y4): only y4 may read the other.
			in := dqbf.NewInstance()
			in.AddUniv(1)
			in.AddUniv(2)
			in.AddExist(3, []cnf.Var{1})
			in.AddExist(4, []cnf.Var{1, 2})
			in.Matrix.AddEquivLit(3, -4)
			return in
		}, "y4"},
		{"cycle", func() *dqbf.Instance {
			// y2 ↔ y3 with equal dependency sets: y2 := y3 is accepted,
			// so y3 := y2 would close a cycle.
			in := dqbf.NewInstance()
			in.AddUniv(1)
			in.AddExist(2, []cnf.Var{1})
			in.AddExist(3, []cnf.Var{1})
			in.Matrix.AddEquivLit(2, 3)
			return in
		}, "y2"},
		{"ite", func() *dqbf.Instance {
			in := dqbf.NewInstance()
			for v := cnf.Var(1); v <= 3; v++ {
				in.AddUniv(v)
			}
			in.AddExist(4, []cnf.Var{1, 2, 3})
			in.Matrix.AddClause(-4, -1, 2)
			in.Matrix.AddClause(-4, 1, 3)
			in.Matrix.AddClause(4, -1, -2)
			in.Matrix.AddClause(4, 1, -3)
			return in
		}, "y4"},
		{"tseitin-xor-chain", func() *dqbf.Instance {
			// y4 ↔ x1 ⊕ x2 ⊕ x3 through one auxiliary: both are defined,
			// each by its own gate.
			in := dqbf.NewInstance()
			for v := cnf.Var(1); v <= 3; v++ {
				in.AddUniv(v)
			}
			in.AddExist(4, []cnf.Var{1, 2, 3})
			gate(in, 4, b.Xor(b.Xor(b.Var(1), b.Var(2)), b.Var(3)))
			for v := cnf.Var(5); v <= cnf.Var(in.Matrix.NumVars); v++ {
				in.AddExist(v, []cnf.Var{1, 2, 3})
			}
			return in
		}, "y4 y5 y6"},
	} {
		in := c.build()
		e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
		if err := e.defineGates(); err != nil {
			t.Fatal(err)
		}
		checkDefinitions(t, c.name, e)
		var got []string
		for _, z := range in.Exist {
			if e.fixed[z] {
				got = append(got, "y"+cnf.PosLit(z).String())
			}
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%s: defined %q, want %q", c.name, g, c.want)
		}
	}
}

// smallRandomInstance builds a random DQBF small enough for
// dqbf.BruteForceTrue: two or three universals, one to three existentials
// over at most two of them, random clauses, and sometimes an AND, OR, XOR
// or equivalence gate whose output is an existential.
func smallRandomInstance(rng *rand.Rand) *dqbf.Instance {
	in := dqbf.NewInstance()
	nX := 2 + rng.Intn(2)
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	nY := 1 + rng.Intn(3)
	for j := 0; j < nY; j++ {
		deps := randomDeps(rng, in.Univ)
		if len(deps) > 2 {
			deps = deps[:2]
		}
		in.AddExist(cnf.Var(nX+j+1), deps)
	}
	n := nX + nY
	lit := func() cnf.Lit { return cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0) }
	if rng.Intn(2) == 0 {
		z := cnf.PosLit(in.Exist[rng.Intn(nY)])
		a, b := lit(), lit()
		switch rng.Intn(4) {
		case 0:
			in.Matrix.AddAnd(z, a, b)
		case 1:
			in.Matrix.AddOr(z, a, b)
		case 2:
			in.Matrix.AddXor(z, a, b)
		default:
			in.Matrix.AddEquivLit(z, a)
		}
	}
	for c := 1 + rng.Intn(4); c > 0; c-- {
		lits := make([]cnf.Lit, 2+rng.Intn(2))
		for i := range lits {
			lits[i] = lit()
		}
		in.Matrix.AddClause(lits...)
	}
	return in
}

// TestDifferentialAgainstBruteForce runs Manthan3 on about a hundred small
// random instances: every vector it returns must pass VerifyVector, and
// every False verdict must agree with dqbf.BruteForceTrue.
func TestDifferentialAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ok, falses, other int
	for i := 0; i < 100; i++ {
		in := smallRandomInstance(rng)
		truth, err := dqbf.BruteForceTrue(in, 0)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		res, err := Synthesize(context.Background(), in, Options{Seed: int64(i)})
		switch {
		case err == nil:
			vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
			if verr != nil || !vr.Valid {
				t.Fatalf("instance %d: invalid vector (%v):\n%s", i, verr, in.Matrix)
			}
			ok++
		case errors.Is(err, ErrFalse):
			if truth {
				t.Fatalf("instance %d: False verdict on a True instance:\n%s", i, in.Matrix)
			}
			falses++
		case errors.Is(err, ErrIncomplete), errors.Is(err, ErrBudget):
			other++
		default:
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if ok == 0 || falses == 0 {
		t.Fatalf("sweep lacks a verdict class: %d ok, %d false, %d other", ok, falses, other)
	}
	t.Logf("%d ok, %d false, %d incomplete or budget", ok, falses, other)
}

// TestGatesInEvalOrder: a gate may read an existential declared after its
// output and defined later in the same pass, so the sample phase reorders
// the definitions before handing them to the sampler, which declines a
// definition read before it is computed. Here y5 := y6 ⊕ x1 is found
// before y6 := x1 ∧ x2, and y7 ↔ x1 ⊕ … ⊕ x4, in clauses too wide for a
// gate, stays open, so the support is the four universals and y7, and the
// sampler's exact path runs only if the reordering worked.
func TestGatesInEvalOrder(t *testing.T) {
	in := dqbf.NewInstance()
	xs := []cnf.Var{1, 2, 3, 4}
	for _, x := range xs {
		in.AddUniv(x)
	}
	for y := cnf.Var(5); y <= 7; y++ {
		in.AddExist(y, xs)
	}
	in.Matrix.AddClause(-5, 6, 1)
	in.Matrix.AddClause(-5, -6, -1)
	in.Matrix.AddClause(5, -6, 1)
	in.Matrix.AddClause(5, 6, -1)
	in.Matrix.AddClause(-6, 1)
	in.Matrix.AddClause(-6, 2)
	in.Matrix.AddClause(6, -1, -2)
	lits := make([]cnf.Lit, 5)
	for row := 0; row < 16; row++ {
		odd := false
		for i, x := range xs {
			bit := row>>i&1 != 0
			lits[i] = cnf.MkLit(x, !bit)
			odd = odd != bit
		}
		lits[4] = cnf.MkLit(7, odd)
		in.Matrix.AddClause(lits...)
	}

	e := newEngine(context.Background(), in, Options{Seed: 1}.withDefaults())
	if err := e.preprocess(); err != nil {
		t.Fatal(err)
	}
	if len(e.gates) != 2 || e.gates[0].Out != 5 || e.gates[1].Out != 6 || e.fixed[7] {
		t.Fatalf("preprocessing found gates %+v and fixed y7 %v; want y5 over y6, then y6, with y7 open", e.gates, e.fixed[7])
	}
	if order := e.gatesInEvalOrder(); len(order) != 2 || order[0].Out != 6 || order[1].Out != 5 {
		t.Fatalf("evaluation order %+v, want y6 before y5", order)
	}
	before := e.oracleCount()
	if err := e.samplePhase(); err != nil {
		t.Fatal(err)
	}
	if calls := e.oracleCount() - before; calls != 0 || e.stats.Samples != 16 {
		t.Fatalf("sample phase: %d samples in %d oracle calls, want the 16 rows of X in 0", e.stats.Samples, calls)
	}
}
