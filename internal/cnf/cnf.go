// Package cnf provides the propositional-logic substrate used throughout the
// repository: variables, literals, clauses, CNF formulas, assignments, and
// DIMACS-style input/output.
//
// The conventions follow the DIMACS standard: variables are positive integers
// starting at 1, a literal is a signed variable (+v for the positive literal,
// -v for the negation), and a clause is a disjunction of literals.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package cnf

import (
	"fmt"
	"sort"
	"strings"
)

// Var is a propositional variable. Valid variables are >= 1; the zero value
// is reserved as "no variable".
type Var int

// Lit is a literal: a variable or its negation, encoded DIMACS-style as a
// signed integer (+v or -v). The zero value is not a valid literal.
type Lit int

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return -Lit(v) }

// MkLit returns the literal of v with the given polarity (true = positive).
func MkLit(v Var, polarity bool) Lit {
	if polarity {
		return Lit(v)
	}
	return -Lit(v)
}

// Var returns the variable underlying the literal.
func (l Lit) Var() Var {
	if l < 0 {
		return Var(-l)
	}
	return Var(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// IsPos reports whether l is a positive literal.
func (l Lit) IsPos() bool { return l > 0 }

// String renders the literal in DIMACS form.
func (l Lit) String() string { return fmt.Sprintf("%d", int(l)) }

// Clause is a disjunction of literals.
type Clause []Lit

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Normalize sorts the clause by variable, removes duplicate literals, and
// reports whether the clause is a tautology (contains l and ¬l). The returned
// clause shares no state with the receiver.
func (c Clause) Normalize() (Clause, bool) {
	out := c.Clone()
	sort.Slice(out, func(i, j int) bool {
		vi, vj := out[i].Var(), out[j].Var()
		if vi != vj {
			return vi < vj
		}
		return out[i] < out[j]
	})
	dedup := out[:0]
	for i, l := range out {
		if i > 0 && l == out[i-1] {
			continue
		}
		if i > 0 && l == out[i-1].Neg() {
			return nil, true
		}
		dedup = append(dedup, l)
	}
	return dedup, false
}

// String renders the clause as space-separated DIMACS literals with the
// terminating 0.
func (c Clause) String() string {
	var b strings.Builder
	for _, l := range c {
		fmt.Fprintf(&b, "%d ", int(l))
	}
	b.WriteString("0")
	return b.String()
}

// Assignment is a total or partial valuation of variables. Index i holds the
// value of variable i; index 0 is unused. Use the Value constants.
type Assignment []Value

// Value is a three-valued truth value used by Assignment.
type Value int8

// Truth values for Assignment entries.
const (
	Unassigned Value = iota
	True
	False
)

// BoolValue converts a Go bool to a Value.
func BoolValue(b bool) Value {
	if b {
		return True
	}
	return False
}

// Bool converts the value to a Go bool; Unassigned maps to false.
func (v Value) Bool() bool { return v == True }

// Not negates the value; Unassigned stays Unassigned.
func (v Value) Not() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	}
	return Unassigned
}

// NewAssignment returns an all-Unassigned assignment able to hold variables
// 1..n.
func NewAssignment(n int) Assignment { return make(Assignment, n+1) }

// Get returns the value of v, or Unassigned if v is out of range.
func (a Assignment) Get(v Var) Value {
	if int(v) <= 0 || int(v) >= len(a) {
		return Unassigned
	}
	return a[v]
}

// Set assigns value val to variable v. It panics if v is out of range.
func (a Assignment) Set(v Var, val Value) { a[v] = val }

// SetBool assigns the boolean b to variable v.
func (a Assignment) SetBool(v Var, b bool) { a[v] = BoolValue(b) }

// LitValue returns the value of literal l under the assignment.
func (a Assignment) LitValue(l Lit) Value {
	v := a.Get(l.Var())
	if !l.IsPos() {
		v = v.Not()
	}
	return v
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	copy(out, a)
	return out
}

// Restrict returns a fresh assignment keeping only the listed variables.
func (a Assignment) Restrict(vars []Var) Assignment {
	out := NewAssignment(len(a) - 1)
	for _, v := range vars {
		out.Set(v, a.Get(v))
	}
	return out
}

// Formula is a CNF formula: a conjunction of clauses over variables
// 1..NumVars.
type Formula struct {
	// NumVars is the largest variable index in use; variables 1..NumVars are
	// considered part of the formula even if some do not occur in clauses.
	NumVars int
	// Clauses is the clause database.
	Clauses []Clause

	// arena is the tail of the current literal chunk backing clause storage.
	// Clauses carved from it have their capacity pinned to their length, so a
	// caller appending to a stored clause forces a copy instead of clobbering
	// a neighbour. Chunks grow geometrically and are never reclaimed before
	// the formula itself.
	arena []Lit
}

// New returns an empty formula reserving variables 1..numVars.
func New(numVars int) *Formula {
	return &Formula{NumVars: numVars}
}

// NewVar allocates and returns a fresh variable.
func (f *Formula) NewVar() Var {
	f.NumVars++
	return Var(f.NumVars)
}

// NewVars allocates n fresh variables and returns them.
func (f *Formula) NewVars(n int) []Var {
	out := make([]Var, n)
	for i := range out {
		out[i] = f.NewVar()
	}
	return out
}

// alloc carves a clause of length n out of the literal arena, starting a
// fresh chunk when the current one cannot hold it.
func (f *Formula) alloc(n int) Clause {
	if cap(f.arena)-len(f.arena) < n {
		sz := cap(f.arena) * 2
		if sz < 64 {
			sz = 64
		}
		if sz > 4096 {
			sz = 4096
		}
		if sz < n {
			sz = n
		}
		f.arena = make([]Lit, 0, sz)
	}
	i := len(f.arena)
	f.arena = f.arena[:i+n]
	return Clause(f.arena[i : i+n : i+n])
}

// commit records an arena-backed clause, growing NumVars to cover it.
func (f *Formula) commit(c Clause) {
	for _, l := range c {
		if int(l.Var()) > f.NumVars {
			f.NumVars = int(l.Var())
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// AddClause appends a clause built from the given literals, growing NumVars
// as needed. The literal slice is copied.
func (f *Formula) AddClause(lits ...Lit) {
	c := f.alloc(len(lits))
	copy(c, lits)
	f.commit(c)
}

// AddUnit appends the unit clause {l}.
func (f *Formula) AddUnit(l Lit) { f.AddClause(l) }

// AddEquivLit adds clauses asserting a ↔ b.
func (f *Formula) AddEquivLit(a, b Lit) {
	f.AddClause(a.Neg(), b)
	f.AddClause(a, b.Neg())
}

// AddXor adds clauses asserting z ↔ (a ⊕ b).
func (f *Formula) AddXor(z, a, b Lit) {
	f.AddClause(z.Neg(), a, b)
	f.AddClause(z.Neg(), a.Neg(), b.Neg())
	f.AddClause(z, a.Neg(), b)
	f.AddClause(z, a, b.Neg())
}

// AddAnd adds clauses asserting z ↔ (a ∧ b).
func (f *Formula) AddAnd(z, a, b Lit) {
	f.AddClause(z.Neg(), a)
	f.AddClause(z.Neg(), b)
	f.AddClause(z, a.Neg(), b.Neg())
}

// AddOr adds clauses asserting z ↔ (a ∨ b).
func (f *Formula) AddOr(z, a, b Lit) {
	f.AddClause(z, a.Neg())
	f.AddClause(z, b.Neg())
	f.AddClause(z.Neg(), a, b)
}

// AddAndN adds clauses asserting z ↔ (l1 ∧ … ∧ ln). With no inputs, z is
// forced true.
func (f *Formula) AddAndN(z Lit, in []Lit) {
	if len(in) == 0 {
		f.AddUnit(z)
		return
	}
	for _, l := range in {
		f.AddClause(z.Neg(), l)
	}
	big := f.alloc(len(in) + 1)
	big[0] = z
	for i, l := range in {
		big[i+1] = l.Neg()
	}
	f.commit(big)
}

// AddOrN adds clauses asserting z ↔ (l1 ∨ … ∨ ln). With no inputs, z is
// forced false.
func (f *Formula) AddOrN(z Lit, in []Lit) {
	if len(in) == 0 {
		f.AddUnit(z.Neg())
		return
	}
	for _, l := range in {
		f.AddClause(z, l.Neg())
	}
	big := f.alloc(len(in) + 1)
	big[0] = z.Neg()
	for i, l := range in {
		big[i+1] = l
	}
	f.commit(big)
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	out := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// Eval evaluates the formula under a (total) assignment: every clause must
// contain a true literal. Unassigned literals count as false.
func (f *Formula) Eval(a Assignment) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if a.LitValue(l) == True {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// Vars returns the sorted set of variables occurring in clauses.
func (f *Formula) Vars() []Var {
	seen := make(map[Var]bool)
	for _, c := range f.Clauses {
		for _, l := range c {
			seen[l.Var()] = true
		}
	}
	out := make([]Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NegationInto appends to dst a CNF encoding of ¬f using fresh selector
// variables from dst: for each clause c of f a selector s_c ↔ ¬c is
// introduced, and the disjunction of all selectors is asserted. The original
// variables of f are assumed to be shared with dst (dst.NumVars must already
// cover them). The returned literal list holds the selectors.
//
// This is the standard construction used by Manthan3 to build the error
// formula E(X,Y′) = ¬ϕ(X,Y′) ∧ (Y′ ↔ f).
func (f *Formula) NegationInto(dst *Formula) []Lit {
	sels := make([]Lit, 0, len(f.Clauses))
	var neg []Lit
	for _, c := range f.Clauses {
		s := PosLit(dst.NewVar())
		// s ↔ ∧ ¬l for l in c
		neg = neg[:0]
		for _, l := range c {
			neg = append(neg, l.Neg())
		}
		dst.AddAndN(s, neg)
		sels = append(sels, s)
	}
	dst.AddClause(sels...)
	return sels
}

// String renders the formula in DIMACS format.
func (f *Formula) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	return b.String()
}
