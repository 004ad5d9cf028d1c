// Package dqbf models Dependency Quantified Boolean Formulas (DQBF): a
// universally quantified variable block X, existentially quantified variables
// Y with explicit Henkin dependency sets Hi ⊆ X, and a CNF matrix ϕ(X,Y).
//
// The package provides the DQDIMACS interchange format, semantic utilities
// (dependency checks, brute-force truth on small instances), and SAT-based
// verification of candidate Henkin function vectors — the specification-side
// substrate every synthesis engine in this repository shares.
//
// The package is under the determinism contract — results must be
// bit-identical across runs and worker counts (see internal/analysis).
//
//lint:deterministic
package dqbf

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// Instance is a DQBF ∀X ∃^{H1}y1 … ∃^{Hm}ym . ϕ(X,Y).
type Instance struct {
	// Matrix is the quantifier-free CNF body ϕ(X,Y). Variables beyond X∪Y
	// may appear only if introduced by encodings that extend the instance;
	// Validate rejects them by default.
	Matrix *cnf.Formula
	// Univ is the universal block X, in declaration order.
	Univ []cnf.Var
	// Exist is the existential block Y, in declaration order.
	Exist []cnf.Var
	// Deps maps each existential variable to its Henkin dependency set Hi,
	// sorted ascending, each universal once.
	Deps map[cnf.Var][]cnf.Var
}

// NewInstance returns an empty instance with an empty matrix.
func NewInstance() *Instance {
	return &Instance{Matrix: cnf.New(0), Deps: make(map[cnf.Var][]cnf.Var)}
}

// AddUniv declares a universal variable.
func (in *Instance) AddUniv(v cnf.Var) {
	in.Univ = append(in.Univ, v)
	if int(v) > in.Matrix.NumVars {
		in.Matrix.NumVars = int(v)
	}
}

// AddExist declares an existential variable with dependency set deps
// (copied, sorted and deduplicated, so a repeated entry names its universal
// once).
func (in *Instance) AddExist(v cnf.Var, deps []cnf.Var) {
	in.Exist = append(in.Exist, v)
	d := make([]cnf.Var, len(deps))
	copy(d, deps)
	slices.Sort(d)
	in.Deps[v] = slices.Compact(d)
	if int(v) > in.Matrix.NumVars {
		in.Matrix.NumVars = int(v)
	}
}

// IsUniv reports whether v is universal.
func (in *Instance) IsUniv(v cnf.Var) bool {
	for _, u := range in.Univ {
		if u == v {
			return true
		}
	}
	return false
}

// IsExist reports whether v is existential.
func (in *Instance) IsExist(v cnf.Var) bool {
	_, ok := in.Deps[v]
	return ok
}

// DepSet returns the Henkin dependency set of existential y (nil if y is not
// existential). The returned slice must not be modified.
func (in *Instance) DepSet(y cnf.Var) []cnf.Var { return in.Deps[y] }

// DepContains reports whether x ∈ H(y).
func (in *Instance) DepContains(y, x cnf.Var) bool {
	d := in.Deps[y]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= x })
	return i < len(d) && d[i] == x
}

// SubsetDeps reports whether H(a) ⊆ H(b).
func (in *Instance) SubsetDeps(a, b cnf.Var) bool {
	da, db := in.Deps[a], in.Deps[b]
	if len(da) > len(db) {
		return false
	}
	j := 0
	for _, x := range da {
		for j < len(db) && db[j] < x {
			j++
		}
		if j >= len(db) || db[j] != x {
			return false
		}
	}
	return true
}

// ProperSubsetDeps reports whether H(a) ⊂ H(b) strictly.
func (in *Instance) ProperSubsetDeps(a, b cnf.Var) bool {
	return len(in.Deps[a]) < len(in.Deps[b]) && in.SubsetDeps(a, b)
}

// Validate checks structural well-formedness: X and Y disjoint, dependencies
// drawn from X, matrix variables covered by X ∪ Y, no duplicate declarations.
func (in *Instance) Validate() error {
	seen := make(map[cnf.Var]string)
	for _, x := range in.Univ {
		if x <= 0 {
			return fmt.Errorf("dqbf: invalid universal variable %d", x)
		}
		if k, dup := seen[x]; dup {
			return fmt.Errorf("dqbf: variable %d declared twice (%s and universal)", x, k)
		}
		seen[x] = "universal"
	}
	for _, y := range in.Exist {
		if y <= 0 {
			return fmt.Errorf("dqbf: invalid existential variable %d", y)
		}
		if k, dup := seen[y]; dup {
			return fmt.Errorf("dqbf: variable %d declared twice (%s and existential)", y, k)
		}
		seen[y] = "existential"
		for _, d := range in.Deps[y] {
			if seen[d] != "universal" {
				return fmt.Errorf("dqbf: dependency %d of existential %d is not universal", d, y)
			}
		}
	}
	if len(in.Exist) != len(in.Deps) {
		return fmt.Errorf("dqbf: %d existentials but %d dependency sets", len(in.Exist), len(in.Deps))
	}
	for i, c := range in.Matrix.Clauses {
		for _, l := range c {
			if _, ok := seen[l.Var()]; !ok {
				return fmt.Errorf("dqbf: clause %d uses undeclared variable %d", i, l.Var())
			}
		}
	}
	return nil
}

// IsSkolem reports whether every dependency set equals the full universal
// block (the instance is an ordinary 2-QBF Skolem problem).
func (in *Instance) IsSkolem() bool {
	for _, y := range in.Exist {
		if len(in.Deps[y]) != len(in.Univ) {
			return false
		}
	}
	return true
}

// Stats summarizes instance shape.
type Stats struct {
	NumUniv    int
	NumExist   int
	NumClauses int
	MaxDepSize int
	MinDepSize int
	TotalDeps  int
}

// Stats computes summary statistics.
func (in *Instance) Stats() Stats {
	st := Stats{
		NumUniv:    len(in.Univ),
		NumExist:   len(in.Exist),
		NumClauses: len(in.Matrix.Clauses),
		MinDepSize: -1,
	}
	for _, y := range in.Exist {
		d := len(in.Deps[y])
		st.TotalDeps += d
		if d > st.MaxDepSize {
			st.MaxDepSize = d
		}
		if st.MinDepSize < 0 || d < st.MinDepSize {
			st.MinDepSize = d
		}
	}
	if st.MinDepSize < 0 {
		st.MinDepSize = 0
	}
	return st
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Matrix: in.Matrix.Clone(),
		Univ:   append([]cnf.Var(nil), in.Univ...),
		Exist:  append([]cnf.Var(nil), in.Exist...),
		Deps:   make(map[cnf.Var][]cnf.Var, len(in.Deps)),
	}
	for y, d := range in.Deps {
		out.Deps[y] = append([]cnf.Var(nil), d...)
	}
	return out
}

// FuncVector is a candidate Henkin function vector: one boolfunc per
// existential variable, together with the builder that owns the nodes.
type FuncVector struct {
	// B owns all nodes in Funcs.
	B *boolfunc.Builder
	// Funcs maps each existential variable to its function over X (and,
	// before final substitution, possibly over other Y variables).
	Funcs map[cnf.Var]boolfunc.Node
}

// NewFuncVector returns an empty vector backed by builder b (a fresh builder
// if nil).
func NewFuncVector(b *boolfunc.Builder) *FuncVector {
	if b == nil {
		b = boolfunc.NewBuilder()
	}
	return &FuncVector{B: b, Funcs: make(map[cnf.Var]boolfunc.Node)}
}

// DependencyViolations lists, per existential, any variables in the syntactic
// support of its function that are outside its Henkin dependency set. An
// empty result means the vector is dependency-compliant.
func (fv *FuncVector) DependencyViolations(in *Instance) map[cnf.Var][]cnf.Var {
	out := make(map[cnf.Var][]cnf.Var)
	var buf []cnf.Var
	for y, f := range fv.Funcs {
		buf = fv.B.AppendSupport(buf[:0], f)
		for _, v := range buf {
			if !in.DepContains(y, v) {
				out[y] = append(out[y], v)
			}
		}
	}
	for y := range out {
		if len(out[y]) == 0 {
			delete(out, y)
		}
	}
	return out
}

// VerifyResult is the outcome of a SAT-based vector verification.
type VerifyResult struct {
	// Valid is true when ¬ϕ(X, f(X)) is unsatisfiable, i.e. the vector is a
	// Henkin function vector.
	Valid bool
	// Counterexample, when Valid is false, is an assignment to X (and the
	// function outputs on Y) witnessing ϕ's violation.
	Counterexample cnf.Assignment
	// Status carries Unknown if the SAT call exhausted its budget.
	Status sat.Status
}

// VerifyVector checks whether fv is a valid Henkin function vector for the
// instance: it builds E = ¬ϕ(X,Y) ∧ (Y ↔ f(X)) and decides it with the SAT
// solver. Functions must be over X only (apply Substitute first if candidate
// functions still reference Y variables). budgetConflicts < 0 means no limit.
func VerifyVector(in *Instance, fv *FuncVector, budgetConflicts int64) (VerifyResult, error) {
	for _, y := range in.Exist {
		if _, ok := fv.Funcs[y]; !ok {
			return VerifyResult{}, fmt.Errorf("dqbf: vector missing function for existential %d", y)
		}
	}
	if viol := fv.DependencyViolations(in); len(viol) > 0 {
		return VerifyResult{}, fmt.Errorf("dqbf: dependency violations: %v", viol)
	}
	dst := cnf.New(in.Matrix.NumVars)
	in.Matrix.NegationInto(dst)
	for _, y := range in.Exist {
		out := fv.B.ToCNF(fv.Funcs[y], dst, boolfunc.CNFOptions{})
		dst.AddEquivLit(cnf.PosLit(y), out)
	}
	s := sat.New()
	s.AddFormula(dst)
	if budgetConflicts >= 0 {
		s.SetConflictBudget(budgetConflicts)
	}
	switch st := s.Solve(); st {
	case sat.Unsat:
		return VerifyResult{Valid: true, Status: st}, nil
	case sat.Sat:
		m := s.Model()
		keep := make([]cnf.Var, 0, len(in.Univ)+len(in.Exist))
		keep = append(keep, in.Univ...)
		keep = append(keep, in.Exist...)
		return VerifyResult{Valid: false, Counterexample: m.Restrict(keep), Status: st}, nil
	default:
		return VerifyResult{Status: st}, fmt.Errorf("dqbf: verification inconclusive (budget exhausted)")
	}
}

// BruteForceTrue decides, by explicit enumeration of all function vectors,
// whether the instance is True. It is exponential in Σ 2^|Hi| and intended
// only for tests on tiny instances. maxCells bounds the total number of
// function-table cells enumerated (0 means a default of 24).
func BruteForceTrue(in *Instance, maxCells int) (bool, error) {
	if maxCells == 0 {
		maxCells = 24
	}
	cells := 0
	for _, y := range in.Exist {
		cells += 1 << uint(len(in.Deps[y]))
	}
	if cells > maxCells {
		return false, fmt.Errorf("dqbf: instance too large for brute force (%d cells)", cells)
	}
	// Enumerate every combination of truth tables.
	tables := make([][]bool, len(in.Exist))
	sizes := make([]int, len(in.Exist))
	for i, y := range in.Exist {
		sizes[i] = 1 << uint(len(in.Deps[y]))
		tables[i] = make([]bool, sizes[i])
	}
	var tryTables func(i int) bool
	tryTables = func(i int) bool {
		if i == len(in.Exist) {
			return vectorWorks(in, tables)
		}
		for mask := 0; mask < 1<<uint(sizes[i]); mask++ {
			for bit := 0; bit < sizes[i]; bit++ {
				tables[i][bit] = mask&(1<<uint(bit)) != 0
			}
			if tryTables(i + 1) {
				return true
			}
		}
		return false
	}
	return tryTables(0), nil
}

// vectorWorks checks ϕ(X, f(X)) for all X assignments against explicit
// truth tables (index j of the table for yi corresponds to the valuation of
// Hi where bit k is the value of Deps[yi][k]).
func vectorWorks(in *Instance, tables [][]bool) bool {
	n := len(in.Univ)
	for mask := 0; mask < 1<<uint(n); mask++ {
		a := cnf.NewAssignment(in.Matrix.NumVars)
		for k, x := range in.Univ {
			a.SetBool(x, mask&(1<<uint(k)) != 0)
		}
		for i, y := range in.Exist {
			idx := 0
			for k, d := range in.Deps[y] {
				if a.Get(d) == cnf.True {
					idx |= 1 << uint(k)
				}
			}
			a.SetBool(y, tables[i][idx])
		}
		if !in.Matrix.Eval(a) {
			return false
		}
	}
	return true
}

// CheckVectorExhaustively verifies fv by enumerating all universal
// assignments (for tests; exponential in |X|).
func CheckVectorExhaustively(in *Instance, fv *FuncVector) bool {
	n := len(in.Univ)
	for mask := 0; mask < 1<<uint(n); mask++ {
		a := cnf.NewAssignment(in.Matrix.NumVars)
		for k, x := range in.Univ {
			a.SetBool(x, mask&(1<<uint(k)) != 0)
		}
		for _, y := range in.Exist {
			a.SetBool(y, fv.B.Eval(fv.Funcs[y], a))
		}
		if !in.Matrix.Eval(a) {
			return false
		}
	}
	return true
}
