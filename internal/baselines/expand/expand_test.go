package expand

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

func paperExample() *dqbf.Instance {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddUniv(3)
	in.AddExist(4, []cnf.Var{1})
	in.AddExist(5, []cnf.Var{1, 2})
	in.AddExist(6, []cnf.Var{2, 3})
	in.Matrix.AddClause(1, 4)
	in.Matrix.AddClause(-5, 4, -2)
	in.Matrix.AddClause(5, -4)
	in.Matrix.AddClause(5, 2)
	in.Matrix.AddClause(-6, 2, 3)
	in.Matrix.AddClause(6, -2)
	in.Matrix.AddClause(6, -3)
	return in
}

func TestPaperExample(t *testing.T) {
	res, err := Solve(context.Background(), paperExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := paperExample()
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("expansion vector invalid: %v", vr.Counterexample)
	}
	if res.Stats.Rows != 8 {
		t.Fatalf("rows: %d, want 8", res.Stats.Rows)
	}
	if res.Stats.TableCells != 2+4+4 {
		t.Fatalf("cells: %d, want 10", res.Stats.TableCells)
	}
}

func TestFalseInstance(t *testing.T) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, nil)
	in.Matrix.AddClause(-2, 1)
	in.Matrix.AddClause(2, -1)
	_, err := Solve(context.Background(), in, Options{})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestEmptyClauseUnderExpansion(t *testing.T) {
	// Clause of only universal literals falsified by some β → False.
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddUniv(2)
	in.AddExist(3, []cnf.Var{1})
	in.Matrix.AddClause(1, 2)
	in.Matrix.AddClause(3, -3) // keep y used
	_, err := Solve(context.Background(), in, Options{})
	if !errors.Is(err, ErrFalse) {
		t.Fatalf("want ErrFalse, got %v", err)
	}
}

func TestTooLargeGuards(t *testing.T) {
	in := dqbf.NewInstance()
	for i := 1; i <= 5; i++ {
		in.AddUniv(cnf.Var(i))
	}
	in.AddExist(6, []cnf.Var{1, 2, 3, 4, 5})
	in.Matrix.AddClause(6, 1)
	if _, err := Solve(context.Background(), in, Options{MaxUnivVars: 3}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("univ cap: %v", err)
	}
	if _, err := Solve(context.Background(), in, Options{MaxTableCells: 8}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("cell cap: %v", err)
	}
	// ∀x1..xn ∃y: (y ∨ x1)(¬y ∨ x1) is False. A row is a 64-bit mask, so
	// more than 62 universals are too large whatever MaxUnivVars allows.
	for _, n := range []int{63, 64} {
		in := dqbf.NewInstance()
		for i := 1; i <= n; i++ {
			in.AddUniv(cnf.Var(i))
		}
		y := cnf.Var(n + 1)
		in.AddExist(y, nil)
		in.Matrix.AddClause(cnf.PosLit(y), 1)
		in.Matrix.AddClause(cnf.NegLit(y), 1)
		res, err := Solve(context.Background(), in, Options{MaxUnivVars: 64})
		if !errors.Is(err, ErrTooLarge) {
			rows := -1
			if res != nil {
				rows = res.Stats.Rows
			}
			t.Fatalf("%d universals: got %v after %d rows, want ErrTooLarge", n, err, rows)
		}
	}
}

// randomInstance draws a small random DQBF: 1..maxX universals, 1..maxY
// existentials with random dependency sets, and random 1–3-literal clauses.
// The clause loop re-draws its bound on every iteration, so a seed's
// instance sequence depends on that exact call order.
func randomInstance(rng *rand.Rand, maxX, maxY, minClauses, clauseSpread int) *dqbf.Instance {
	in := dqbf.NewInstance()
	nX := 1 + rng.Intn(maxX)
	for i := 1; i <= nX; i++ {
		in.AddUniv(cnf.Var(i))
	}
	nY := 1 + rng.Intn(maxY)
	for j := 0; j < nY; j++ {
		y := cnf.Var(nX + j + 1)
		var deps []cnf.Var
		for i := 1; i <= nX; i++ {
			if rng.Intn(2) == 0 {
				deps = append(deps, cnf.Var(i))
			}
		}
		in.AddExist(y, deps)
	}
	for c := 0; c < minClauses+rng.Intn(clauseSpread); c++ {
		k := 1 + rng.Intn(3)
		cl := make([]cnf.Lit, 0, k)
		for j := 0; j < k; j++ {
			v := cnf.Var(1 + rng.Intn(nX+nY))
			cl = append(cl, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		in.Matrix.AddClause(cl...)
	}
	return in
}

// randomGenerators are the random-instance streams of TestAgainstBruteForce;
// the second draws wider instances (up to 4 universals and 3 existentials).
var randomGenerators = []struct {
	seed                     int64
	trials, maxX, maxY       int
	minClauses, clauseSpread int
	maxCells, minDecided     int
}{
	{seed: 23, trials: 60, maxX: 3, maxY: 2, minClauses: 1, clauseSpread: 4, maxCells: 64, minDecided: 20},
	{seed: 37, trials: 40, maxX: 4, maxY: 3, minClauses: 2, clauseSpread: 5, maxCells: 24, minDecided: 30},
}

// TestAgainstBruteForce decides random instances with Solve and with
// dqbf.BruteForceTrue, which shares no code with any engine, and requires
// the same answer plus a verified vector on every True one.
func TestAgainstBruteForce(t *testing.T) {
	for _, g := range randomGenerators {
		rng := rand.New(rand.NewSource(g.seed))
		decided := 0
		for trial := 0; trial < g.trials; trial++ {
			in := randomInstance(rng, g.maxX, g.maxY, g.minClauses, g.clauseSpread)
			want, err := dqbf.BruteForceTrue(in, g.maxCells)
			if err != nil {
				continue
			}
			decided++
			res, err := Solve(context.Background(), in, Options{})
			if want {
				if err != nil {
					t.Fatalf("seed %d trial %d: True instance rejected: %v", g.seed, trial, err)
				}
				vr, verr := dqbf.VerifyVector(in, res.Vector, -1)
				if verr != nil || !vr.Valid {
					t.Fatalf("seed %d trial %d: invalid vector", g.seed, trial)
				}
			} else if !errors.Is(err, ErrFalse) {
				t.Fatalf("seed %d trial %d: False instance: got %v", g.seed, trial, err)
			}
		}
		if decided < g.minDecided {
			t.Fatalf("seed %d: brute force decided %d of %d trials, want at least %d", g.seed, decided, g.trials, g.minDecided)
		}
	}
}

func TestVectorRespectsDependencies(t *testing.T) {
	res, err := Solve(context.Background(), paperExample(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := paperExample()
	if viol := res.Vector.DependencyViolations(in); len(viol) != 0 {
		t.Fatalf("dependency violations: %v", viol)
	}
	// f for y1 (var 4) must only mention x1.
	sup := res.Vector.B.Support(res.Vector.Funcs[4])
	for _, v := range sup {
		if v != 1 {
			t.Fatalf("f1 support: %v", sup)
		}
	}
}

func TestNoUniversals(t *testing.T) {
	// Pure SAT: ∃y. y — one row, one cell.
	in := dqbf.NewInstance()
	in.AddExist(1, nil)
	in.Matrix.AddClause(1)
	res, err := Solve(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vector.Funcs[1].Valid() || !res.Vector.B.Eval(res.Vector.Funcs[1], cnf.NewAssignment(1)) {
		t.Fatal("constant-true function expected")
	}
}

// referenceExpansion is the row loop Solve ran before the instantiation was
// compiled: map lookups per literal and a dedup set keyed by each clause's
// DIMACS text. Its table variables are numbered as tableBases numbers them.
func referenceExpansion(in *dqbf.Instance) ([]cnf.Clause, error) {
	nX := len(in.Univ)
	out := cnf.New(0)
	tableVar := make(map[cnf.Var][]cnf.Var, len(in.Exist)) // y → vars per Hi row
	for _, y := range in.Exist {
		tableVar[y] = out.NewVars(1 << uint(len(in.DepSet(y))))
	}
	xPos := make(map[cnf.Var]int, nX)
	for i, x := range in.Univ {
		xPos[x] = i
	}
	seenClause := make(map[string]bool)
	for beta := 0; beta < 1<<uint(nX); beta++ {
		for _, c := range in.Matrix.Clauses {
			inst := make([]cnf.Lit, 0, len(c))
			satisfied := false
			for _, l := range c {
				if p, isX := xPos[l.Var()]; isX {
					bit := beta&(1<<uint(p)) != 0
					if bit == l.IsPos() {
						satisfied = true
						break
					}
					continue // literal false under β: drop
				}
				y := l.Var()
				deps := in.DepSet(y)
				idx := 0
				for k, d := range deps {
					if beta&(1<<uint(xPos[d])) != 0 {
						idx |= 1 << uint(k)
					}
				}
				inst = append(inst, cnf.MkLit(tableVar[y][idx], l.IsPos()))
			}
			if satisfied {
				continue
			}
			if len(inst) == 0 {
				return nil, ErrFalse
			}
			key := cnf.Clause(inst).String()
			if seenClause[key] {
				continue
			}
			seenClause[key] = true
			out.AddClause(inst...)
		}
	}
	return out.Clauses, nil
}

// dedupInstance is ∀x1 ∃y2(x1) ∃y3(∅) with the clauses (y2 ∨ y3),
// (y3 ∨ y2), (x1 ∨ y2 ∨ y3) and (y3). Its table variables are t2[x1=0] = 1,
// t2[x1=1] = 2 and t3 = 3. Row x1=0 instantiates (1 3), (3 1), (1 3) and (3);
// row x1=1 instantiates (2 3), (3 2) and (3), the third clause being
// satisfied. The same literals in another order are a different clause, and
// a repeated sequence is dropped within a row and across rows.
func dedupInstance() (*dqbf.Instance, []cnf.Clause) {
	in := dqbf.NewInstance()
	in.AddUniv(1)
	in.AddExist(2, []cnf.Var{1})
	in.AddExist(3, nil)
	in.Matrix.AddClause(2, 3)
	in.Matrix.AddClause(3, 2)
	in.Matrix.AddClause(1, 2, 3)
	in.Matrix.AddClause(3)
	return in, []cnf.Clause{{1, 3}, {3, 1}, {3}, {2, 3}, {3, 2}}
}

// TestExpansionMatchesReference requires instantiate to return exactly the
// clause sequence of the reference loop, or the same ErrFalse, on the random
// streams of TestAgainstBruteForce, on tiers 1 and 2 of every gen family and
// on a matrix built to exercise the dedup rule.
func TestExpansionMatchesReference(t *testing.T) {
	check := func(name string, in *dqbf.Instance) []cnf.Clause {
		t.Helper()
		want, wantErr := referenceExpansion(in)
		base, _, err := tableBases(in, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := instantiate(context.Background(), in, base)
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s: got error %v, reference %v", name, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d clauses, reference %d", name, len(got), len(want))
		}
		for k := range want {
			if !slices.Equal(got[k], want[k]) {
				t.Fatalf("%s: clause %d is %v, reference %v", name, k, got[k], want[k])
			}
		}
		return got
	}

	for _, g := range randomGenerators {
		rng := rand.New(rand.NewSource(g.seed))
		for trial := 0; trial < g.trials; trial++ {
			in := randomInstance(rng, g.maxX, g.maxY, g.minClauses, g.clauseSpread)
			check(fmt.Sprintf("seed %d trial %d", g.seed, trial), in)
		}
	}
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for _, index := range []int{0, 1, 5, 6} {
			inst := gen.Generate(fam, index, 1)
			check(inst.Name, inst.DQBF)
		}
	}
	in, want := dedupInstance()
	if got := check("dedup", in); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("dedup: got %v, want %v", got, want)
	}
}

// TestClauseSetKeepsHashCollisions commits clauses that all share one hash:
// only literal equality may drop a clause, also across table growth.
func TestClauseSetKeepsHashCollisions(t *testing.T) {
	set := newClauseSet(0, 0)
	var want []cnf.Clause
	for i := 1; i <= 1500; i++ {
		for _, c := range []cnf.Clause{{cnf.Lit(i), 1}, {1, cnf.Lit(i)}, {cnf.Lit(i), 1}} {
			set.lits = append(set.lits, c...)
			set.commit(42)
			if !slices.ContainsFunc(want, func(w cnf.Clause) bool { return slices.Equal(w, c) }) {
				want = append(want, c)
			}
		}
	}
	if got := set.clauses(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("kept %d clauses, want %d", len(got), len(want))
	}
}

// equivTier2 is gen's equiv-001-h2 at seed 1: 8,192 rows instantiating
// 81,920 clauses.
func equivTier2() *dqbf.Instance { return gen.Generate(gen.FamilyEquiv, 1, 1).DQBF }

// TestExpandAllocBudget pins that instantiating a clause allocates nothing:
// Solve on equiv-001-h2 stays under 1,000 heap allocations, where a string
// dedup key and a clause slice per instantiation made about 547,700.
func TestExpandAllocBudget(t *testing.T) {
	in := equivTier2()
	run := func() {
		if _, err := Solve(context.Background(), in, Options{}); err != nil {
			t.Fatalf("Solve: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(3, run); avg >= 1000 {
		t.Fatalf("expansion allocates %.0f objects per run, want < 1000", avg)
	}
}

// BenchmarkExpand measures Solve on equiv-001-h2: the expansion, the solver
// load, the SAT call and the truth-table read-back.
func BenchmarkExpand(b *testing.B) {
	in := equivTier2()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Solve(context.Background(), in, Options{}); err != nil {
			b.Fatalf("Solve: %v", err)
		}
	}
}
