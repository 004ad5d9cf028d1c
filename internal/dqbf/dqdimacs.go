package dqbf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// ParseDQDIMACS reads a DQBF instance in the DQDIMACS format used by the
// QBFEval DQBF track:
//
//	p cnf <vars> <clauses>
//	a x1 x2 … 0          universal block(s)
//	e y1 y2 … 0          existentials depending on all universals so far
//	d y x1 x2 … 0        existential with explicit dependency set
//	<clauses>
//
// Multiple a/e blocks may alternate (each e block depends on the universals
// declared before it); d lines declare Henkin dependencies explicitly. The
// problem line's variable count only bounds the variables the file may use:
// Matrix.NumVars is the largest variable declared or used.
func ParseDQDIMACS(r io.Reader) (*Instance, error) {
	in := NewInstance()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var cur cnf.Clause
	var univSoFar []cnf.Var
	declared := make(map[cnf.Var]byte) // 'a' universal, 'e'/'d' existential
	lineNo := 0
	sawProblem := false
	numVars := 0
	declLimit := int(^uint(0) >> 1) // no bound until the problem line is seen
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if sawProblem {
				return nil, fmt.Errorf("dqdimacs: line %d: duplicate problem line", lineNo)
			}
			if len(fields) < 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dqdimacs: line %d: malformed problem line", lineNo)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, fmt.Errorf("dqdimacs: line %d: bad var count", lineNo)
			}
			numVars = nv
			declLimit = nv
			sawProblem = true
		case "a":
			vars, err := parseVarList(fields[1:], lineNo, declLimit)
			if err != nil {
				return nil, err
			}
			for _, v := range vars {
				if declared[v] != 0 {
					return nil, fmt.Errorf("dqdimacs: line %d: variable %d redeclared", lineNo, v)
				}
				declared[v] = 'a'
				in.AddUniv(v)
				univSoFar = append(univSoFar, v)
			}
		case "e":
			vars, err := parseVarList(fields[1:], lineNo, declLimit)
			if err != nil {
				return nil, err
			}
			for _, v := range vars {
				if declared[v] != 0 {
					return nil, fmt.Errorf("dqdimacs: line %d: variable %d redeclared", lineNo, v)
				}
				declared[v] = 'e'
				in.AddExist(v, univSoFar)
			}
		case "d":
			vars, err := parseVarList(fields[1:], lineNo, declLimit)
			if err != nil {
				return nil, err
			}
			if len(vars) == 0 {
				return nil, fmt.Errorf("dqdimacs: line %d: empty d line", lineNo)
			}
			y := vars[0]
			if declared[y] != 0 {
				return nil, fmt.Errorf("dqdimacs: line %d: variable %d redeclared", lineNo, y)
			}
			// Henkin dependency sets must name previously declared
			// universals: undeclared or existential entries are format
			// errors, rejected here with the offending line.
			for _, dep := range vars[1:] {
				switch declared[dep] {
				case 'a':
				case 0:
					return nil, fmt.Errorf("dqdimacs: line %d: dependency %d of existential %d is undeclared", lineNo, dep, y)
				default:
					return nil, fmt.Errorf("dqdimacs: line %d: dependency %d of existential %d is existential, not universal", lineNo, dep, y)
				}
			}
			declared[y] = 'd'
			in.AddExist(y, vars[1:])
		default:
			for _, tok := range fields {
				n, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("dqdimacs: line %d: bad literal %q", lineNo, tok)
				}
				if n == 0 {
					in.Matrix.AddClause(cur...)
					cur = cur[:0]
					continue
				}
				if abs(n) > declLimit {
					return nil, fmt.Errorf("dqdimacs: line %d: literal %d exceeds the %d variables of the problem line", lineNo, n, numVars)
				}
				cur = append(cur, cnf.Lit(n))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dqdimacs: read: %w", err)
	}
	if len(cur) > 0 {
		in.Matrix.AddClause(cur...)
	}
	if !sawProblem {
		return nil, fmt.Errorf("dqdimacs: missing problem line")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func parseVarList(fields []string, lineNo, numVars int) ([]cnf.Var, error) {
	out := make([]cnf.Var, 0, len(fields))
	sawZero := false
	for _, tok := range fields {
		n, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("dqdimacs: line %d: bad variable %q", lineNo, tok)
		}
		if n == 0 {
			sawZero = true
			break
		}
		if n < 0 {
			return nil, fmt.Errorf("dqdimacs: line %d: negative variable %d in quantifier line", lineNo, n)
		}
		if n > numVars {
			return nil, fmt.Errorf("dqdimacs: line %d: variable %d exceeds the %d variables of the problem line", lineNo, n, numVars)
		}
		out = append(out, cnf.Var(n))
	}
	if !sawZero {
		return nil, fmt.Errorf("dqdimacs: line %d: quantifier line missing terminating 0", lineNo)
	}
	return out, nil
}

// WriteDQDIMACS writes the instance in DQDIMACS format: one a-line with all
// universals, then one d-line per existential (explicit dependencies), then
// the matrix.
func WriteDQDIMACS(w io.Writer, in *Instance) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", in.Matrix.NumVars, len(in.Matrix.Clauses)); err != nil {
		return err
	}
	if len(in.Univ) > 0 {
		fmt.Fprint(bw, "a")
		us := append([]cnf.Var(nil), in.Univ...)
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		for _, v := range us {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw, " 0")
	}
	for _, y := range in.Exist {
		fmt.Fprintf(bw, "d %d", y)
		for _, d := range in.Deps[y] {
			fmt.Fprintf(bw, " %d", d)
		}
		fmt.Fprintln(bw, " 0")
	}
	for _, c := range in.Matrix.Clauses {
		fmt.Fprintln(bw, c.String())
	}
	return bw.Flush()
}
