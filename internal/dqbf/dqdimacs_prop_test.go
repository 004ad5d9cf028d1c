package dqbf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

// TestDQDIMACSRoundTripProperty: write→parse is the identity on instance
// structure for random instances.
func TestDQDIMACSRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NewInstance()
		nX := 1 + rng.Intn(6)
		for i := 1; i <= nX; i++ {
			in.AddUniv(cnf.Var(i))
		}
		nY := 1 + rng.Intn(5)
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
		for c := 0; c < rng.Intn(10); c++ {
			k := 1 + rng.Intn(4)
			cl := make([]cnf.Lit, 0, k)
			for j := 0; j < k; j++ {
				v := cnf.Var(1 + rng.Intn(nX+nY))
				cl = append(cl, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			in.Matrix.AddClause(cl...)
		}
		var sb strings.Builder
		if err := WriteDQDIMACS(&sb, in); err != nil {
			return false
		}
		got, err := ParseDQDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if len(got.Univ) != len(in.Univ) || len(got.Exist) != len(in.Exist) ||
			len(got.Matrix.Clauses) != len(in.Matrix.Clauses) {
			return false
		}
		for _, y := range in.Exist {
			d1, d2 := in.Deps[y], got.Deps[y]
			if len(d1) != len(d2) {
				return false
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					return false
				}
			}
		}
		for i := range in.Matrix.Clauses {
			if in.Matrix.Clauses[i].String() != got.Matrix.Clauses[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDLineRejectsUndeclaredDependency: a d-line naming a never-declared
// variable in its dependency set must fail with a line-numbered error
// (previously it was silently accepted and only maybe caught much later by
// Validate, without the line).
func TestDLineRejectsUndeclaredDependency(t *testing.T) {
	in := "p cnf 3 1\na 1 0\nd 3 1 2 0\n3 0\n"
	_, err := ParseDQDIMACS(strings.NewReader(in))
	if err == nil {
		t.Fatal("undeclared dependency accepted")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("want line-numbered undeclared-dependency error, got: %v", err)
	}
}

// TestDLineRejectsExistentialDependency: Henkin dependency sets must contain
// universals only.
func TestDLineRejectsExistentialDependency(t *testing.T) {
	in := "p cnf 3 1\na 1 0\ne 2 0\nd 3 1 2 0\n3 0\n"
	_, err := ParseDQDIMACS(strings.NewReader(in))
	if err == nil {
		t.Fatal("existential dependency accepted")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "existential") {
		t.Fatalf("want line-numbered existential-dependency error, got: %v", err)
	}
}

// TestDLineRepeatedDependency parses ∀x1 x2 ∃^{x1} y3 . (y3 ↔ x2) with its
// one dependency written twice, "d 3 1 1 0". The repeat names x1 once:
// H(y3) = {x1}, so the instance is no 2-QBF, and the subset helpers compare
// H(y3) with {x1} as equal sets. Kept as {x1, x1}, IsSkolem compared its
// length with |X| = 2 and passed it as a 2-QBF.
func TestDLineRepeatedDependency(t *testing.T) {
	in, err := ParseDQDIMACS(strings.NewReader("p cnf 3 2\na 1 2 0\nd 3 1 1 0\n-3 2 0\n3 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.DepSet(3); len(got) != 1 || got[0] != 1 {
		t.Fatalf("H(y3) = %v, want [1]", got)
	}
	if in.IsSkolem() {
		t.Fatal("H(y3) = {x1} of X = {x1, x2} reported Skolem")
	}
	in.AddExist(4, []cnf.Var{1})
	if !in.SubsetDeps(3, 4) || !in.SubsetDeps(4, 3) {
		t.Fatal("H(y3) and H(y4) = {x1} not reported subsets of each other")
	}
	if in.ProperSubsetDeps(3, 4) || in.ProperSubsetDeps(4, 3) {
		t.Fatal("H(y3) and H(y4) = {x1} reported proper subsets")
	}
}

// TestClauseRejectsVariableBeyondHeader: clauses may only use variables
// 1..<vars> of the problem line.
func TestClauseRejectsVariableBeyondHeader(t *testing.T) {
	in := "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 7 0\n"
	_, err := ParseDQDIMACS(strings.NewReader(in))
	if err == nil {
		t.Fatal("out-of-range clause literal accepted")
	}
	if !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), "7") {
		t.Fatalf("want line-numbered out-of-range error, got: %v", err)
	}
}

// TestDLineValidProperty: d-lines over declared universals keep parsing, with
// dependency sets preserved, for randomized orders and subsets.
func TestDLineValidProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nX := 1 + rng.Intn(5)
		var sb strings.Builder
		fmt.Fprintf(&sb, "p cnf %d 1\na", nX+1)
		for i := 1; i <= nX; i++ {
			fmt.Fprintf(&sb, " %d", i)
		}
		sb.WriteString(" 0\nd ")
		fmt.Fprintf(&sb, "%d", nX+1)
		var deps []int
		for i := 1; i <= nX; i++ {
			if rng.Intn(2) == 0 {
				deps = append(deps, i)
				fmt.Fprintf(&sb, " %d", i)
			}
		}
		fmt.Fprintf(&sb, " 0\n%d 0\n", nX+1)
		got, err := ParseDQDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return len(got.Deps[cnf.Var(nX+1)]) == len(deps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
