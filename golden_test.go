// Golden engine outcomes: the behaviour gate for changes that must not move
// any engine's answer. Every registered engine runs on a fixed set of small
// instances, every vector it returns must pass dqbf.VerifyVector, and the
// outcome class plus the SHA-256 of the certificate text must match
// testdata/engine_outcomes.golden line for line. Regenerate the
// file (only when a change is meant to alter outcomes) with
//
//	go test -run TestGoldenEngineOutcomes -update .
package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_outcomes.golden from the current engines")

const goldenPath = "testdata/engine_outcomes.golden"

// goldenDeadline is far above any golden run's time: a run that reaches it
// fails the test, so no recorded outcome depends on wall-clock time.
const goldenDeadline = 60 * time.Second

type goldenInstance struct {
	name string
	in   *dqbf.Instance
}

// goldenInstances returns generator instances 0 and 5 of every family (both
// tier 1, generator seed 1), one Skolem instance, whose full dependency sets
// put it inside cegar's fragment, and equiv instances 10 and 30 (tier 1,
// seed 1), which manthan3 answers only with its gate definitions and row
// repair: without them it spends its 2,000 repair rounds on both.
func goldenInstances() []goldenInstance {
	var out []goldenInstance
	for _, fam := range []gen.Family{gen.FamilyEquiv, gen.FamilyController, gen.FamilySAT2DQBF, gen.FamilyRandom} {
		for _, idx := range []int{0, 5} {
			inst := gen.Generate(fam, idx, 1)
			out = append(out, goldenInstance{inst.Name, inst.DQBF})
		}
	}
	// y4 ↔ (x1 ∧ x2) ∨ x3 and y5 ↔ x1 ⊕ x3, both over all universals.
	in := dqbf.NewInstance()
	for v := cnf.Var(1); v <= 3; v++ {
		in.AddUniv(v)
	}
	in.AddExist(4, []cnf.Var{1, 2, 3})
	in.AddExist(5, []cnf.Var{1, 2, 3})
	in.Matrix.AddClause(-4, 1, 3)
	in.Matrix.AddClause(-4, 2, 3)
	in.Matrix.AddClause(4, -1, -2)
	in.Matrix.AddClause(4, -3)
	in.Matrix.AddClause(-5, 1, 3)
	in.Matrix.AddClause(-5, -1, -3)
	in.Matrix.AddClause(5, -1, 3)
	in.Matrix.AddClause(5, 1, -3)
	out = append(out, goldenInstance{"skolem-xor", in})
	for _, idx := range []int{10, 30} {
		inst := gen.Generate(gen.FamilyEquiv, idx, 1)
		out = append(out, goldenInstance{inst.Name, inst.DQBF})
	}
	return out
}

// TestGoldenEngineOutcomes runs every registered engine on the golden
// instances with engine seed 1 and default worker counts, checks every
// returned vector with dqbf.VerifyVector, and compares
// "<instance> <engine> <outcome> <certificate sha256 or ->" lines against
// the committed golden file.
func TestGoldenEngineOutcomes(t *testing.T) {
	var got bytes.Buffer
	for _, inst := range goldenInstances() {
		for _, name := range backend.Names() {
			b, err := backend.Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), goldenDeadline)
			res, err := b.Synthesize(ctx, inst.in, backend.Options{Seed: 1})
			expired := ctx.Err() != nil
			cancel()
			if expired {
				t.Fatalf("%s/%s: ran into the %v deadline (outcome %s)", inst.name, name, goldenDeadline, backend.Classify(err))
			}
			cert := "-"
			if err == nil {
				vr, verr := dqbf.VerifyVector(inst.in, res.Vector, -1)
				if verr != nil || !vr.Valid {
					t.Fatalf("%s/%s: invalid vector (%v)", inst.name, name, verr)
				}
				var text bytes.Buffer
				if werr := dqbf.WriteCertificate(&text, res.Vector); werr != nil {
					t.Fatalf("%s/%s: writing certificate: %v", inst.name, name, werr)
				}
				sum := sha256.Sum256(text.Bytes())
				cert = hex.EncodeToString(sum[:])
			}
			fmt.Fprintf(&got, "%s %s %s %s\n", inst.name, name, backend.Classify(err), cert)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
		}
	}
}
