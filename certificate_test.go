package repro

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// TestCertificatesRoundTrip runs every registered engine on the golden
// instances and sends each returned vector through its certificate text,
// dqbf.WriteCertificate then dqbf.ParseCertificate, as henkinverify and the
// service read it back. The parsed vector must pass VerifyVector and
// evaluate like the returned one on every assignment of X, or on 4,096
// seeded ones when |X| > 12. Manthan3's learned candidates are if-then-else
// circuits, so its certificates must exercise the parser's ite(…) terms.
func TestCertificatesRoundTrip(t *testing.T) {
	ites := 0
	for _, inst := range goldenInstances() {
		for _, name := range backend.Names() {
			b, err := backend.Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), goldenDeadline)
			res, err := b.Synthesize(ctx, inst.in, backend.Options{Seed: 1})
			cancel()
			if err != nil {
				continue // TestGoldenEngineOutcomes pins which runs return a vector
			}
			var text bytes.Buffer
			if err := dqbf.WriteCertificate(&text, res.Vector); err != nil {
				t.Fatalf("%s/%s: writing certificate: %v", inst.name, name, err)
			}
			if name == "manthan3" && strings.Contains(text.String(), "ite(") {
				ites++
			}
			parsed, err := dqbf.ParseCertificate(&text)
			if err != nil {
				t.Fatalf("%s/%s: parsing certificate: %v", inst.name, name, err)
			}
			if vr, err := dqbf.VerifyVector(inst.in, parsed, -1); err != nil || !vr.Valid {
				t.Fatalf("%s/%s: parsed certificate is not a Henkin vector (%v)", inst.name, name, err)
			}
			if len(parsed.Funcs) != len(res.Vector.Funcs) {
				t.Fatalf("%s/%s: certificate holds %d functions, vector %d", inst.name, name, len(parsed.Funcs), len(res.Vector.Funcs))
			}
			checkSameFunctions(t, inst.name+"/"+name, inst.in, res.Vector, parsed)
		}
	}
	if ites == 0 {
		t.Fatal("no manthan3 certificate carries an ite(…) term")
	}
}

// checkSameFunctions fails unless every existential's function in got
// evaluates like its function in want on every assignment of X, or on
// 4,096 seeded ones when |X| > 12.
func checkSameFunctions(t *testing.T, what string, in *dqbf.Instance, want, got *dqbf.FuncVector) {
	t.Helper()
	n := len(in.Univ)
	rounds := 1 << min(n, 12)
	rng := rand.New(rand.NewSource(1))
	a := cnf.NewAssignment(in.Matrix.NumVars)
	for i := 0; i < rounds; i++ {
		for k, x := range in.Univ {
			if n > 12 {
				a.SetBool(x, rng.Intn(2) == 1)
			} else {
				a.SetBool(x, i>>k&1 == 1)
			}
		}
		for _, y := range in.Exist {
			if w, g := want.B.Eval(want.Funcs[y], a), got.B.Eval(got.Funcs[y], a); w != g {
				t.Fatalf("%s: y%d is %v in the vector and %v in its certificate at X assignment %d", what, y, w, g, i)
			}
		}
	}
}
