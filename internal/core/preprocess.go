package core

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
	"repro/internal/sampler"
	"repro/internal/sat"
)

// The preprocess phase performs the preprocessing inherited from the
// Manthan lineage: unate detection, then gate definitions.
//
//   - Positive unate: if ϕ[yi:=0] ∧ ¬ϕ[yi:=1] is UNSAT then setting yi to 1
//     never hurts, so fi = 1 (symmetrically fi = 0 for negative unate).
//     Constants have empty support, so they trivially satisfy any Henkin
//     dependency set. A variable ϕ fixes is unate: ϕ is satisfiable when
//     the phase runs, so if ϕ ∧ ¬yi is UNSAT the positive query is UNSAT
//     and fi = 1, and if ϕ ∧ yi is UNSAT the positive query is SAT and the
//     negative one UNSAT, so fi = 0.
//   - Definition: if the clauses over {z} ∪ S, |S| ≤ 3, fix z on every
//     assignment of S, then fz = g(S) for that local truth table g (see
//     defineGates). These are the AND, OR, XOR and ITE gates a Tseitin
//     encoding such as boolfunc.ToCNF emits, the patterns of SatELite's gate
//     detection (Eén & Biere, SAT 2005).
//
// Manthan2 and the paper take uniquely defined variables out of learning
// and repair, and so does this phase for the gates it finds: left to the
// learn+repair loop, a generator's Tseitin auxiliaries do not converge
// (equiv-030-h1 at seed 1 ran 2,000 repair rounds without an answer). The
// paper finds definitions semantically (Padoa's theorem with the
// interpolation-based UNIQUE tool); this reproduction finds only the local
// gates, with no SAT call.
//
// The phase runs in three steps: a syntactic unate pass over ϕ's literal
// occurrences, semantic unate checks for the existentials it left, and the
// gate definitions. The two cofactors of a semantic check share every
// variable but y, so the check needs one copy of ϕ: ϕ[y:=0] ∧ ¬ϕ[y:=1] is
// satisfiable exactly when some model of ϕ with y = 0 makes ¬y the only
// true literal of a clause C that holds ¬y and not y. The positive check
// therefore asks ϕ ∧ ¬y ∧ ¬(C∖{¬y}) for each such C, in clause order, and
// stops at the first Sat; y is positive unate when every query is UNSAT.
// The negative check is the mirror image. The checks run in declaration
// order, positive first, on one ϕ-loaded solver of their own, built for
// the first existential the syntactic pass leaves, so a query is an
// assumption call. None runs on the run's ϕ-solver: repair reads its
// learnt clauses and saved phases, so a query there would move
// certificates.

// preprocess runs the preprocess phase; see the comment above.
func (e *Engine) preprocess() error {
	// Syntactic unate fast path: a y that never occurs negated in the CNF is
	// positive unate (flipping it to 1 can only satisfy more clauses), and
	// symmetrically for never-positive occurrences.
	occ := newLitOcc(e.in.Matrix)
	for _, y := range e.in.Exist {
		switch {
		case len(occ.of(cnf.NegLit(y))) == 0:
			e.fixUnate(y, true)
		case len(occ.of(cnf.PosLit(y))) == 0:
			e.fixUnate(y, false)
		}
	}

	var s *sat.Solver
	var queries int64
	for _, y := range e.in.Exist {
		if e.fixed[y] {
			continue
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		if s == nil {
			s = e.newPhiSolver()
			e.stats.PreprocSolversBuilt = 1
		}
		for _, positive := range []bool{true, false} {
			unate, n, err := e.isUnate(s, &occ, y, positive)
			queries += n
			if err != nil {
				return err
			}
			if unate {
				e.fixUnate(y, positive)
				break
			}
		}
	}
	e.extraOracle += queries
	if err := e.defineGates(); err != nil {
		return err
	}
	e.tracef("preprocess: %d unates, %d defined, %d queries (%d solvers built)",
		e.stats.UnatesDetected, e.stats.DefinedVars, queries, e.stats.PreprocSolversBuilt)
	return nil
}

// fixUnate installs the constant v as unate y's function and fixes y.
func (e *Engine) fixUnate(y cnf.Var, v bool) {
	e.setFunc(y, e.b.Const(v))
	e.fixed[y] = true
	e.unates = append(e.unates, cnf.MkLit(y, v))
	e.stats.UnatesDetected++
}

// Gate definitions. For an existential z, a candidate input set S is the
// other variables of one of z's short clauses, or of a pair of them, with
// |S| ≤ 3. Row r of S's truth table is fixed to v when some clause over
// {z} ∪ S is false on r except for z's literal, which has sign v; z is
// defined when every row is fixed. In every model of ϕ, z then equals g(S),
// so replacing fz by g(fS) keeps a valid vector valid: nothing is lost by
// taking z out of learning and repair. A row fixed both ways occurs in no
// model of ϕ and gets 0.
//
// Candidates are tried single clauses first, then pairs, each in clause
// order. boolfunc.ToCNF emits a node's gate clauses right after its
// children's, so z's first clauses are the gate that defines it, and an XOR
// chain resolves in the direction it was encoded. An ITE gate needs a pair.
// The search looks at z's first maxGateSingles short clauses for single
// candidates and its first maxGatePairs for pairs; the truth table reads
// all of them.
const (
	maxGateSingles = 64
	maxGatePairs   = 16
)

// rowMask[j] marks the truth-table rows (bit r: row r) in which S[j] is 1;
// row r gives S[j] the value of bit j of r, as boolfunc.FromTruthTable reads
// its table.
var rowMask = [3]uint8{0xAA, 0xCC, 0xF0}

// shortOcc is a flat occurrence index of ϕ's short clauses, those of width
// at most 4 with no repeated variable: a gate over at most three inputs
// consists of such clauses. v's clauses are clause[start[v]:start[v+1]], in
// clause order.
type shortOcc struct {
	start  []int32
	clause []int32
}

// newShortOcc builds the index in one pass over the clause list plus one
// over the short clauses it kept.
func newShortOcc(f *cnf.Formula) shortOcc {
	start := make([]int32, f.NumVars+2)
	short := make([]int32, 0, len(f.Clauses))
	for ci, c := range f.Clauses {
		if len(c) > 4 || repeatsVar(c) {
			continue
		}
		short = append(short, int32(ci))
		for _, l := range c {
			start[l.Var()+1]++
		}
	}
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	next := append([]int32(nil), start...)
	clause := make([]int32, start[len(start)-1])
	for _, ci := range short {
		for _, l := range f.Clauses[ci] {
			clause[next[l.Var()]] = ci
			next[l.Var()]++
		}
	}
	return shortOcc{start: start, clause: clause}
}

// of returns the indices of v's short clauses.
func (o *shortOcc) of(v cnf.Var) []int32 { return o.clause[o.start[v]:o.start[v+1]] }

// repeatsVar reports whether a variable occurs twice in c (a duplicate
// literal or a tautology).
func repeatsVar(c cnf.Clause) bool {
	for i := range c {
		for j := i + 1; j < len(c); j++ {
			if c[i].Var() == c[j].Var() {
				return true
			}
		}
	}
	return false
}

// gateInputs is a candidate S: its variables in first-seen order.
type gateInputs struct {
	v [3]cnf.Var
	n int
}

// add merges the variables of c other than z into s, reporting false when
// the union would exceed three variables.
func (s *gateInputs) add(c cnf.Clause, z cnf.Var) bool {
	for _, l := range c {
		if v := l.Var(); v != z && s.index(v) < 0 {
			if s.n == len(s.v) {
				return false
			}
			s.v[s.n] = v
			s.n++
		}
	}
	return true
}

// index returns v's position in s, or -1.
func (s *gateInputs) index(v cnf.Var) int {
	for j := 0; j < s.n; j++ {
		if s.v[j] == v {
			return j
		}
	}
	return -1
}

// defineGates is the definitions step at the end of the preprocess phase:
// serially, in declaration order, every existential not fixed yet whose
// gate defines it (see above) and whose inputs respect its dependencies
// gets the gate as its function and joins the fixed set. Defined variables
// are skipped by learning and repair like constants, but stay features for
// the candidates learned after them. The step makes no SAT call.
func (e *Engine) defineGates() error {
	occ := newShortOcc(e.in.Matrix)
	for _, z := range e.in.Exist {
		if e.fixed[z] {
			continue
		}
		if s, table, ok := e.findGate(z, &occ); ok {
			if err := e.defineAs(z, s, table); err != nil {
				return err
			}
		}
	}
	return nil
}

// findGate returns the first candidate S that defines z and that z may
// reference, with its truth table (bit r: row r's value).
func (e *Engine) findGate(z cnf.Var, occ *shortOcc) (gateInputs, uint8, bool) {
	cls := e.in.Matrix.Clauses
	mine := occ.of(z)
	for _, ci := range mine[:min(len(mine), maxGateSingles)] {
		var s gateInputs
		s.add(cls[ci], z)
		if table, ok := e.gateTable(z, &s, mine); ok && e.mayReference(z, &s) {
			return s, table, true
		}
	}
	pairs := mine[:min(len(mine), maxGatePairs)]
	for i, ci := range pairs {
		for _, cj := range pairs[i+1:] {
			var s gateInputs
			if !s.add(cls[ci], z) {
				continue
			}
			single := s.n
			if !s.add(cls[cj], z) || s.n == single {
				continue // too wide, or the single candidate of ci again
			}
			if table, ok := e.gateTable(z, &s, mine); ok && e.mayReference(z, &s) {
				return s, table, true
			}
		}
	}
	return gateInputs{}, 0, false
}

// gateTable computes the truth table of z over s from z's short clauses
// (mine), reporting whether every row is fixed.
func (e *Engine) gateTable(z cnf.Var, s *gateInputs, mine []int32) (uint8, bool) {
	full := uint8(0xFF >> (8 - (1 << s.n)))
	var fix0, fix1 uint8
	for _, ci := range mine {
		rows, zPos, fits := full, false, true
		for _, l := range e.in.Matrix.Clauses[ci] {
			v := l.Var()
			if v == z {
				zPos = l.IsPos()
				continue
			}
			j := s.index(v)
			if j < 0 {
				fits = false
				break
			}
			// Keep the rows on which l is false.
			if l.IsPos() {
				rows &^= rowMask[j]
			} else {
				rows &= rowMask[j]
			}
		}
		switch {
		case !fits:
		case zPos:
			fix1 |= rows
		default:
			fix0 |= rows
		}
	}
	return fix1 &^ fix0, fix0|fix1 == full
}

// mayReference reports whether z's function may reference every variable
// of s: a universal must lie in H(z), and an existential must have its
// dependency set inside H(z) and must not depend on z already (that would
// close a reference cycle).
func (e *Engine) mayReference(z cnf.Var, s *gateInputs) bool {
	for _, v := range s.v[:s.n] {
		if !e.in.IsExist(v) {
			if !e.in.DepContains(z, v) {
				return false
			}
		} else if !e.in.SubsetDeps(v, z) || e.deps[z][v] {
			return false
		}
	}
	return true
}

// defineAs installs the gate over s with the given truth table as z's
// function and fixes z.
func (e *Engine) defineAs(z cnf.Var, s gateInputs, table uint8) error {
	inputs := s.v[:s.n]
	rows := make([]bool, 1<<s.n)
	for r := range rows {
		rows[r] = table>>r&1 != 0
	}
	g, err := e.b.FromTruthTable(inputs, rows)
	if err != nil {
		return fmt.Errorf("%w: definition of y%d: %w", ErrInternal, z, err)
	}
	for _, v := range inputs {
		if e.in.IsExist(v) {
			e.recordUse(z, v)
		}
	}
	e.setFunc(z, g)
	e.fixed[z] = true
	e.gates = append(e.gates, sampler.Def{Out: z, In: slices.Clone(inputs), Table: table})
	e.stats.DefinedVars++
	return nil
}

// gatesInEvalOrder returns the gate definitions reordered so that every
// defined input comes before the definition that reads it, as the sampler
// requires: an input may be defined later in declaration order. The
// references are acyclic (see mayReference), so a depth-first walk from
// each definition in declaration order places its inputs first.
func (e *Engine) gatesInEvalOrder() []sampler.Def {
	at := make(map[cnf.Var]int, len(e.gates))
	for i, d := range e.gates {
		at[d.Out] = i
	}
	placed := make([]bool, len(e.gates))
	order := make([]sampler.Def, 0, len(e.gates))
	var place func(i int)
	place = func(i int) {
		if placed[i] {
			return
		}
		placed[i] = true
		for _, v := range e.gates[i].In {
			if j, ok := at[v]; ok {
				place(j)
			}
		}
		order = append(order, e.gates[i])
	}
	for i := range e.gates {
		place(i)
	}
	return order
}

// litOcc is a flat occurrence index of ϕ's literals: the clauses that hold
// literal l are clause[start[i]:start[i+1]], i = litSlot(l), in clause
// order, once per occurrence of l, so a clause repeating l is listed
// twice in a row.
type litOcc struct {
	start  []int32
	clause []int32
}

// litSlot numbers the literals of variable v as 2v (positive) and 2v+1.
func litSlot(l cnf.Lit) int {
	if l.IsPos() {
		return 2 * int(l.Var())
	}
	return 2*int(l.Var()) + 1
}

// newLitOcc builds the index in two passes over the clause list.
func newLitOcc(f *cnf.Formula) litOcc {
	start := make([]int32, 2*f.NumVars+3)
	for _, c := range f.Clauses {
		for _, l := range c {
			start[litSlot(l)+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	next := append([]int32(nil), start...)
	clause := make([]int32, start[len(start)-1])
	for ci, c := range f.Clauses {
		for _, l := range c {
			clause[next[litSlot(l)]] = int32(ci)
			next[litSlot(l)]++
		}
	}
	return litOcc{start: start, clause: clause}
}

// of returns the indices of the clauses that hold l.
func (o *litOcc) of(l cnf.Lit) []int32 {
	i := litSlot(l)
	return o.clause[o.start[i]:o.start[i+1]]
}

// isUnate checks semantic unateness of y in ϕ on s, a solver loaded with ϕ:
// positive unate when ϕ[y:=0] ∧ ¬ϕ[y:=1] is UNSAT, negative unate with the
// cofactors swapped. For the positive check it asks, for every clause C
// that holds ¬y and not y, whether ϕ ∧ ¬y ∧ ¬(C∖{¬y}) has a model, and
// stops at the first that does (see the phase comment); it returns the
// verdict and the queries it issued.
func (e *Engine) isUnate(s *sat.Solver, occ *litOcc, y cnf.Var, positive bool) (unate bool, queries int64, err error) {
	held := cnf.MkLit(y, !positive) // ¬y for the positive check, y for the negative
	assumps := make([]cnf.Lit, 0, 16)
	prev := int32(-1)
clauses:
	for _, ci := range occ.of(held) {
		if ci == prev {
			continue // held repeated in one clause
		}
		prev = ci
		assumps = append(assumps[:0], held)
		for _, l := range e.in.Matrix.Clauses[ci] {
			switch l {
			case held:
			case held.Neg():
				continue clauses // a tautology is true at both values of y
			default:
				assumps = append(assumps, l.Neg())
			}
		}
		queries++
		switch s.SolveAssume(assumps) {
		case sat.Unsat:
		case sat.Sat:
			return false, queries, nil
		default:
			return false, queries, e.oracleUnknown(s, "unate check")
		}
	}
	return true, queries, nil
}
