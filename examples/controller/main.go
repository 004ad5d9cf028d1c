// Partial-observation controller synthesis — another headline application of
// DQBF/Henkin synthesis (Bloem, Könighofer, Seidl, VMCAI 2014).
//
// A plant has three state bits s1..s3 and one disturbance bit d. Two control
// signals must keep the system safe, but each controller is distributed and
// sees only part of the state:
//
//	c1 observes {s1, s2},   c2 observes {s2, s3}.
//
// Safety: safe(s, d, c) = (c1 ↔ s1∧s2) ∨ esc, with esc = ¬d ∧ ¬s1, and
// c2 must ensure (c2 ∨ ¬s2 ∨ ¬s3) (brake when both rear sensors fire).
//
// The DQBF is ∀s,d ∃^{O1}c1 ∃^{O2}c2 . safe — Henkin dependencies encode the
// observation structure, which plain QBF cannot express without widening the
// interfaces.
//
// Run with: go run ./examples/controller
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/boolfunc"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
)

func main() {
	in := dqbf.NewInstance()
	// Universals: s1=1, s2=2, s3=3, d=4.
	for i := 1; i <= 4; i++ {
		in.AddUniv(cnf.Var(i))
	}
	c1, c2 := cnf.Var(5), cnf.Var(6)
	in.AddExist(c1, []cnf.Var{1, 2})
	in.AddExist(c2, []cnf.Var{2, 3})

	b := boolfunc.NewBuilder()
	law1 := b.And(b.Var(1), b.Var(2))                 // target law for c1
	esc := b.And(b.Not(b.Var(4)), b.Not(b.Var(1)))    // escape region
	safe1 := b.Or(b.Not(b.Xor(b.Var(c1), law1)), esc) // (c1 ↔ s1∧s2) ∨ esc
	safe2 := b.OrN([]boolfunc.Node{b.Var(c2), b.Not(b.Var(2)), b.Not(b.Var(3))})
	safe := b.And(safe1, safe2)
	out := b.ToCNF(safe, in.Matrix, boolfunc.CNFOptions{})
	in.Matrix.AddUnit(out)
	declared := map[cnf.Var]bool{1: true, 2: true, 3: true, 4: true, c1: true, c2: true}
	for _, c := range in.Matrix.Clauses {
		for _, l := range c {
			if !declared[l.Var()] {
				declared[l.Var()] = true
				in.AddExist(l.Var(), []cnf.Var{1, 2, 3, 4})
			}
		}
	}
	if err := in.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("distributed safety controller: c1 sees {s1,s2}, c2 sees {s2,s3}")
	// PreprocWorkers: 2 runs the two controllers' unate checks concurrently;
	// the result is bit-identical to a serial run.
	res, err := core.Synthesize(context.Background(), in, core.Options{Seed: 7, PreprocWorkers: 2})
	if err != nil {
		log.Fatalf("synthesis: %v", err)
	}
	for _, p := range res.Stats.Phases {
		fmt.Printf("  phase %-13s %v (%d oracle calls)\n", p.Name, p.Duration.Round(time.Microsecond), p.OracleCalls)
	}
	vr, err := dqbf.VerifyVector(in, res.Vector, -1)
	if err != nil || !vr.Valid {
		log.Fatalf("controller failed verification: %v", err)
	}

	fmt.Println("synthesized control laws:")
	ys := []cnf.Var{c1, c2}
	for _, y := range ys {
		fmt.Printf("  c%d(%v) := %s\n", y-4, in.DepSet(y), res.Vector.B.String(res.Vector.Funcs[y]))
	}

	// Show the closed-loop behaviour over every plant state.
	fmt.Println("closed-loop check over all 16 states:")
	names := []string{"s1", "s2", "s3", "d"}
	var rows []string
	for mask := 0; mask < 16; mask++ {
		a := cnf.NewAssignment(in.Matrix.NumVars)
		for i := 0; i < 4; i++ {
			a.SetBool(cnf.Var(i+1), mask&(1<<i) != 0)
		}
		v1 := res.Vector.B.Eval(res.Vector.Funcs[c1], a)
		v2 := res.Vector.B.Eval(res.Vector.Funcs[c2], a)
		a.SetBool(c1, v1)
		a.SetBool(c2, v2)
		safeNow := b.Eval(safe, a)
		row := "  "
		for i, n := range names {
			row += fmt.Sprintf("%s=%d ", n, bit(mask, i))
		}
		row += fmt.Sprintf("-> c1=%t c2=%t safe=%t", v1, v2, safeNow)
		rows = append(rows, row)
		if !safeNow {
			log.Fatalf("UNSAFE state reached: %s", row)
		}
	}
	sort.Strings(rows)
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Println("all states safe ✓")
}

func bit(mask, i int) int {
	if mask&(1<<i) != 0 {
		return 1
	}
	return 0
}
