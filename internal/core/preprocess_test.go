package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/sat"
)

// referenceConstants is the constant check the preprocess phase ran before
// its unate checks: on a fresh ϕ-solver, ϕ ∧ y UNSAT gives y the constant 0,
// and otherwise ϕ ∧ ¬y UNSAT gives it 1. It returns the constants by
// existential.
func referenceConstants(t *testing.T, in *dqbf.Instance) map[cnf.Var]bool {
	t.Helper()
	s := sat.New()
	s.AddFormula(in.Matrix)
	unsat := func(l cnf.Lit) bool {
		st := s.SolveAssume([]cnf.Lit{l})
		if st == sat.Unknown {
			t.Fatalf("reference constant check %v: unknown", l)
		}
		return st == sat.Unsat
	}
	consts := make(map[cnf.Var]bool)
	for _, y := range in.Exist {
		switch {
		case unsat(cnf.PosLit(y)):
			consts[y] = false
		case unsat(cnf.NegLit(y)):
			consts[y] = true
		}
	}
	return consts
}

// satisfiable reports whether ϕ has a model.
func satisfiable(in *dqbf.Instance) bool {
	s := sat.New()
	s.AddFormula(in.Matrix)
	return s.Solve() == sat.Sat
}

// TestUnateChecksCoverConstants runs the preprocess phase as fixedFunctions
// does, on random instances with satisfiable ϕ and on gen's tier-1 and
// tier-2 instances of every family at seed 1. Every existential
// referenceConstants fixes must come out fixed to the same constant, for one
// and for two workers: a constant of a satisfiable ϕ is unate, so the
// unate checks alone find it.
func TestUnateChecksCoverConstants(t *testing.T) {
	type named struct {
		name string
		in   *dqbf.Instance
	}
	var instances []named
	for _, g := range []struct {
		seed int64
		draw func(*rand.Rand) *dqbf.Instance
	}{
		{seed: 41, draw: randomGateInstance},
		{seed: 43, draw: smallRandomInstance},
	} {
		rng := rand.New(rand.NewSource(g.seed))
		for i := 0; i < 150; {
			if in := g.draw(rng); satisfiable(in) {
				instances = append(instances, named{fmt.Sprintf("seed %d draw %d", g.seed, i), in})
				i++
			}
		}
	}
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for index := 0; index < 20; index++ {
			if inst := gen.Generate(fam, index, 1); inst.Hardness <= 2 && satisfiable(inst.DQBF) {
				instances = append(instances, named{inst.Name, inst.DQBF})
			}
		}
	}

	constants := 0
	for _, c := range instances {
		want := referenceConstants(t, c.in)
		constants += len(want)
		for _, workers := range []int{1, 2} {
			e := newEngine(context.Background(), c.in, Options{Seed: 1, PreprocWorkers: workers}.withDefaults())
			if err := e.preprocess(); err != nil {
				t.Fatalf("%s, %d workers: preprocess: %v", c.name, workers, err)
			}
			for _, y := range c.in.Exist {
				v, ok := want[y]
				switch {
				case !ok:
				case !e.fixed[y]:
					t.Fatalf("%s, %d workers: ϕ fixes y%d to %v, preprocess leaves it free", c.name, workers, y, v)
				case e.funcs[y] != e.b.Const(v):
					t.Fatalf("%s, %d workers: ϕ fixes y%d to %v, preprocess to %s",
						c.name, workers, y, v, e.b.String(e.funcs[y]))
				}
			}
		}
	}
	// 247 constants at the time of writing; far fewer means the inputs
	// stopped exercising the check.
	if constants < 200 {
		t.Fatalf("%d constants over %d instances, want at least 200", constants, len(instances))
	}
}

// TestPreprocessProgressLine: the preprocess phase prints its progress
// line on every path, with the queries its semantic unate checks issued,
// also when the syntactic pass fixes every existential and no solver is
// built. manthan3 -v and traced benchmark runs read the line as the end of
// the phase.
func TestPreprocessProgressLine(t *testing.T) {
	// ∀x1 ∃y2 ∃y3 . (y2 ∨ x1) ∧ (¬y3 ∨ ¬x1): y2 never occurs negated, y3
	// never positive.
	syntactic := dqbf.NewInstance()
	syntactic.AddUniv(1)
	syntactic.AddExist(2, []cnf.Var{1})
	syntactic.AddExist(3, []cnf.Var{1})
	syntactic.Matrix.AddClause(2, 1)
	syntactic.Matrix.AddClause(-3, -1)
	for _, c := range []struct {
		name string
		in   *dqbf.Instance
	}{{"syntactic", syntactic}, {"preproc-heavy", preprocHeavyInstance()}} {
		var lines []string
		res, err := Synthesize(context.Background(), c.in, Options{Seed: 1, PreprocWorkers: 1, Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "preprocess:") {
				lines = append(lines, fmt.Sprintf(format, args...))
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		queries := res.Stats.Phases[0].OracleCalls // the checks are the phase's only solver calls
		if c.name == "syntactic" && (queries != 0 || res.Stats.UnatesDetected != 2 || res.Stats.PreprocSolversBuilt != 0) {
			t.Fatalf("%s: %d unates in %d queries on %d pooled solvers, want both existentials with no solver",
				c.name, res.Stats.UnatesDetected, queries, res.Stats.PreprocSolversBuilt)
		}
		if want := fmt.Sprintf(", %d queries (", queries); len(lines) != 1 || !strings.Contains(lines[0], want) {
			t.Fatalf("%s: progress lines %q, want one holding %q", c.name, lines, want)
		}
	}
}

// referenceUnate decides y's unate checks as the preprocess phase did
// before its checks ran on one copy of ϕ: on the doubled formula
// ϕ(X,Y) ∧ ¬ϕ(X,Y″), with a selector t_y → (y ↔ y″) per existential, y is
// positive unate when ϕ[y:=0] ∧ ¬ϕ[y:=1] is UNSAT, posed with every other
// existential's selector, ¬y and y″ as assumptions, and negative unate
// with the two literals on y swapped. It returns the check as a function
// of y and the polarity.
func referenceUnate(t *testing.T, e *Engine) func(y cnf.Var, positive bool) bool {
	t.Helper()
	f := cnf.New(e.in.Matrix.NumVars)
	for _, c := range e.in.Matrix.Clauses {
		f.AddClause(c...)
	}
	prime := e.addNegatedCopy(f)
	sel := make(map[cnf.Var]cnf.Var, len(e.in.Exist))
	for _, y := range e.in.Exist {
		s := f.NewVar()
		sel[y] = s
		f.AddClause(cnf.NegLit(s), cnf.NegLit(y), cnf.PosLit(prime[y]))
		f.AddClause(cnf.NegLit(s), cnf.PosLit(y), cnf.NegLit(prime[y]))
	}
	s := sat.New()
	s.AddFormula(f)
	return func(y cnf.Var, positive bool) bool {
		t.Helper()
		var assumps []cnf.Lit
		for _, yj := range e.in.Exist {
			if yj != y {
				assumps = append(assumps, cnf.PosLit(sel[yj]))
			}
		}
		assumps = append(assumps, cnf.MkLit(y, !positive), cnf.MkLit(prime[y], positive))
		st := s.SolveAssume(assumps)
		if st == sat.Unknown {
			t.Fatalf("reference unate check of y%d: unknown", y)
		}
		return st == sat.Unsat
	}
}

// TestUnateMatchesReference holds isUnate, which queries ϕ once per clause
// on y's literal, to referenceUnate's doubled formula: the same verdict for
// every existential and both polarities, on random instances (their random
// clauses repeat literals and contain tautologies) and on every gen family,
// tiers 1–5, at gen seeds 1 and 2. Three small instances pin the clauses
// a check must read with care: a clause that repeats ¬y is queried once, a
// tautology on y is never queried, and a y whose one negative occurrence
// is a tautology is positive unate, which only the semantic check finds.
func TestUnateMatchesReference(t *testing.T) {
	// checkAll compares every verdict on in, returning how many it compared
	// and how many were unate.
	checkAll := func(name string, in *dqbf.Instance) (verdicts, unates int) {
		t.Helper()
		e := newEngine(context.Background(), in, Options{Seed: 1, PreprocWorkers: 1}.withDefaults())
		s, occ := e.newPhiSolver(), newLitOcc(in.Matrix)
		ref := referenceUnate(t, e)
		for _, y := range in.Exist {
			for _, positive := range []bool{true, false} {
				got, _, err := e.isUnate(s, &occ, y, positive)
				if err != nil {
					t.Fatalf("%s: y%d positive=%v: %v", name, y, positive, err)
				}
				if want := ref(y, positive); got != want {
					t.Fatalf("%s: y%d positive=%v: isUnate %v, reference %v\n%s", name, y, positive, got, want, in.Matrix)
				}
				verdicts++
				if got {
					unates++
				}
			}
		}
		return verdicts, unates
	}

	verdicts, unates := 0, 0
	for _, g := range []struct {
		seed int64
		draw func(*rand.Rand) *dqbf.Instance
	}{
		{seed: 51, draw: randomGateInstance},
		{seed: 53, draw: smallRandomInstance},
	} {
		rng := rand.New(rand.NewSource(g.seed))
		for i := 0; i < 1000; i++ {
			v, u := checkAll(fmt.Sprintf("seed %d draw %d", g.seed, i), g.draw(rng))
			verdicts, unates = verdicts+v, unates+u
		}
	}
	for _, seed := range []int64{1, 2} {
		for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
			for index := 0; index < 20; index++ {
				inst := gen.Generate(fam, index, seed)
				v, u := checkAll(fmt.Sprintf("%s (gen seed %d)", inst.Name, seed), inst.DQBF)
				verdicts, unates = verdicts+v, unates+u
			}
		}
	}
	// 14,230 verdicts, 4,275 of them unate, at the time of writing; far
	// fewer means the inputs stopped exercising the checks.
	if verdicts < 12000 || unates < 3500 {
		t.Fatalf("%d verdicts, %d unate; want at least 12,000 and 3,500", verdicts, unates)
	}

	// x1 and x2 universal, y3 existential.
	for _, c := range []struct {
		name    string
		clauses [][]cnf.Lit
		want    [2]bool  // positive, negative
		queries [2]int64 // issued by each check
	}{
		// ϕ forces x1, so (¬y3 ∨ ¬y3 ∨ x1), queried once although it holds
		// ¬y3 twice, never needs ¬y3: positive unate.
		{"repeated ¬y", [][]cnf.Lit{{-3, -3, 1}, {1, 2}, {1, -2}, {3, 2}}, [2]bool{true, false}, [2]int64{1, 1}},
		// The tautology is true at both values of y3; (y3 ∨ x1) and
		// (¬y3 ∨ x2) each stop one check.
		{"tautology", [][]cnf.Lit{{3, -3, 1}, {3, 1}, {-3, 2}}, [2]bool{false, false}, [2]int64{1, 1}},
		// ¬y3 occurs only in the tautology: raising y3 falsifies no clause.
		{"tautology-only ¬y", [][]cnf.Lit{{3, -3, 1}, {3, 2}}, [2]bool{true, false}, [2]int64{0, 1}},
	} {
		in := dqbf.NewInstance()
		in.AddUniv(1)
		in.AddUniv(2)
		in.AddExist(3, []cnf.Var{1, 2})
		for _, cl := range c.clauses {
			in.Matrix.AddClause(cl...)
		}
		checkAll(c.name, in)
		e := newEngine(context.Background(), in, Options{Seed: 1, PreprocWorkers: 1}.withDefaults())
		s, occ := e.newPhiSolver(), newLitOcc(in.Matrix)
		for i, positive := range []bool{true, false} {
			got, queries, err := e.isUnate(s, &occ, 3, positive)
			if err != nil || got != c.want[i] || queries != c.queries[i] {
				t.Fatalf("%s: positive=%v: unate %v in %d queries (%v), want %v in %d",
					c.name, positive, got, queries, err, c.want[i], c.queries[i])
			}
		}
		if err := e.preprocess(); err != nil {
			t.Fatalf("%s: preprocess: %v", c.name, err)
		}
		if fixed := e.fixed[3] && e.funcs[3] == e.b.Const(true); fixed != c.want[0] {
			t.Fatalf("%s: preprocess fixes y3 to 1: %v, want %v", c.name, fixed, c.want[0])
		}
	}
}

// bruteUnate decides y's unate check on ϕ by its definition: y is positive
// unate when every model of ϕ with y = 0 stays a model when y is raised to
// 1, and negative unate when every model with y = 1 stays one when y is
// lowered to 0.
func bruteUnate(f *cnf.Formula, y cnf.Var, positive bool) bool {
	a := cnf.NewAssignment(f.NumVars)
	for bits := 0; bits < 1<<f.NumVars; bits++ {
		for v := 1; v <= f.NumVars; v++ {
			a.SetBool(cnf.Var(v), bits>>(v-1)&1 == 1)
		}
		if a.Get(y).Bool() == positive || !f.Eval(a) {
			continue
		}
		a.SetBool(y, positive)
		if !f.Eval(a) {
			return false
		}
	}
	return true
}

// FuzzUnateMatchesBruteForce decodes a CNF of up to 10 variables from the
// fuzz bytes and holds isUnate, on both polarities of every existential, to
// bruteUnate. data[0] sets the variable count, bit i of data[1] and data[2]
// (little-endian) marks variable i+1 existential (the last variable when
// none is), and every later byte is a literal, drawn with replacement so
// that clauses repeat literals and hold tautologies: its low seven bits
// pick the variable and its high bit negates it, and a byte whose low
// seven bits are 0 ends the clause. The preprocess phase must then fix
// exactly the unate existentials as unates, each to a constant its check
// allows.
func FuzzUnateMatchesBruteForce(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0x82, 0x82, 1, 0, 2, 0x81, 0})           // y2 ↔ x1, with ¬y2 twice in (¬y2 ∨ ¬y2 ∨ x1)
	f.Add([]byte{1, 2, 0, 2, 0x82, 1, 0, 2, 1, 0, 0x82, 0x81})     // a tautology on y2 beside (y2 ∨ x1) and (¬y2 ∨ ¬x1)
	f.Add([]byte{2, 4, 0, 3, 0x83, 1, 0, 3, 2, 0})                 // ¬y3 only in a tautology: positive unate
	f.Add([]byte{3, 0x0c, 0, 0x83, 1, 0, 3, 0x81, 0, 4, 0x84})     // y3 ↔ x1, and y4 only in a tautology
	f.Add([]byte{9, 0xf0, 0x03, 5, 0x86, 7, 0, 0x85, 9, 0, 0, 10}) // an empty clause: ϕ is UNSAT
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 64 {
			return
		}
		nv := 1 + int(data[0])%10
		in := dqbf.NewInstance()
		exist := int(data[1]) | int(data[2])<<8
		if exist&(1<<nv-1) == 0 {
			exist = 1 << (nv - 1)
		}
		for v := 1; v <= nv; v++ {
			if exist>>(v-1)&1 == 0 {
				in.AddUniv(cnf.Var(v))
			}
		}
		for v := 1; v <= nv; v++ {
			if exist>>(v-1)&1 != 0 {
				in.AddExist(cnf.Var(v), in.Univ)
			}
		}
		var cl []cnf.Lit
		body := data[3:]
		for i, b := range body {
			if b&0x7f != 0 {
				cl = append(cl, cnf.MkLit(cnf.Var(1+int(b&0x7f-1)%nv), b&0x80 == 0))
			}
			if b&0x7f == 0 || i == len(body)-1 {
				in.Matrix.AddClause(cl...)
				cl = cl[:0]
			}
		}

		opts := Options{Seed: 1, PreprocWorkers: 1}.withDefaults()
		e := newEngine(context.Background(), in, opts)
		s, occ := e.newPhiSolver(), newLitOcc(in.Matrix)
		for _, y := range in.Exist {
			for _, positive := range []bool{true, false} {
				got, _, err := e.isUnate(s, &occ, y, positive)
				if err != nil {
					t.Fatalf("y%d positive=%v: %v", y, positive, err)
				}
				if want := bruteUnate(in.Matrix, y, positive); got != want {
					t.Fatalf("y%d positive=%v: isUnate %v, brute force %v\n%s", y, positive, got, want, in.Matrix)
				}
			}
		}

		e = newEngine(context.Background(), in, opts)
		if err := e.preprocess(); err != nil {
			t.Fatal(err)
		}
		fixedBy := make(map[cnf.Var]bool, len(e.unates))
		for _, l := range e.unates {
			fixedBy[l.Var()] = l.IsPos()
			if !bruteUnate(in.Matrix, l.Var(), l.IsPos()) {
				t.Fatalf("preprocess fixes y%d to %v, which its check does not allow\n%s", l.Var(), l.IsPos(), in.Matrix)
			}
		}
		for _, y := range in.Exist {
			if _, ok := fixedBy[y]; !ok && (bruteUnate(in.Matrix, y, true) || bruteUnate(in.Matrix, y, false)) {
				t.Fatalf("y%d is unate, preprocess leaves it to %s\n%s", y, e.b.String(e.funcs[y]), in.Matrix)
			}
		}
	})
}
