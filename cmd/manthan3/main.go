// Command manthan3 synthesizes Henkin functions for a DQBF instance in
// DQDIMACS format. Engines are resolved through the internal/backend
// registry: the Manthan3 engine (default) or one of the baseline
// synthesizers, or a portfolio racing several of them.
//
// Usage:
//
//	manthan3 [-engine manthan3|expand|pedant|cegar|portfolio:manthan3+expand+pedant]
//	         [-timeout 60s] [-pp-workers 0] [-seed 1] [-verify]
//	         [-verilog out.v] [-v] [-q] instance.dqdimacs
//
// -timeout bounds the whole synthesis through a context threaded into every
// engine's SAT search loops, so expiry interrupts a run promptly.
// -engine accepts any backend spec (see internal/backend): a registry name,
// a seed-pinned variant ("manthan3@7"), a portfolio racing members
// concurrently ("portfolio:expand+cegar+manthan3"), a fallback chain trying
// members sequentially and advancing only on non-definitive failure
// ("fallback:cegar>manthan3"), or a budget-escalating retry loop
// ("retry(2):manthan3"); retry composes with the others
// ("retry(1):portfolio:a+b"). Every resolved spec runs under panic
// isolation — an engine that panics yields a classified internal error
// (exit 2), never a crash. A portfolio races its members under one
// context: the first definitive answer (functions or a False proof) wins
// and the losers are canceled. -pp-workers bounds the manthan3
// preprocessing worker pool, the one engine-internal pool (0 = NumCPU);
// manthan3 learns and repairs serially. Every engine-internal SAT solver
// runs the one search configuration of internal/sat. On success the
// engine's per-phase telemetry is printed as `c stats: phases: …` — name,
// wall-clock duration, and oracle calls per executed phase — and, for
// composed dispatch (portfolio/fallback/retry), the member invocations as
// `c stats: attempts: …` with each attempt's outcome class and duration.
//
// On True instances, the synthesized functions are printed one per line as
// `y<var> := <expression>`; the exit status is 0. False instances report
// FALSE and exit 0. Budget/incompleteness failures exit 2; usage and input
// errors exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/boolfunc"
	"repro/internal/dqbf"

	// Engine registrations: each engine package registers itself with the
	// backend registry in its init.
	_ "repro/internal/baselines/cegar"
	_ "repro/internal/baselines/expand"
	_ "repro/internal/baselines/pedant"
	_ "repro/internal/core"
)

func main() {
	os.Exit(run())
}

func run() int {
	engine := flag.String("engine", "manthan3", "synthesis engine spec (also name@seed, portfolio:a+b+c, fallback:a>b, retry(k):spec): "+strings.Join(backend.Names(), ", "))
	timeout := flag.Duration("timeout", 60*time.Second, "synthesis timeout (enforced via context cancellation)")
	seed := flag.Int64("seed", 1, "random seed")
	ppWorkers := flag.Int("pp-workers", 0, "manthan3 preprocessing worker count (0 = NumCPU)")
	verify := flag.Bool("verify", true, "independently verify the synthesized vector")
	quiet := flag.Bool("q", false, "suppress function printing; report status only")
	verilog := flag.String("verilog", "", "also write the functions as a structural Verilog module to this file")
	verbose := flag.Bool("v", false, "trace engine progress to stderr (manthan3 engine only)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: manthan3 [flags] instance.dqdimacs")
		flag.PrintDefaults()
		return 1
	}

	be, err := backend.Resolve(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	in, err := dqbf.ParseDQDIMACS(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	st := in.Stats()
	fmt.Printf("c instance: %d universal, %d existential, %d clauses, dep sizes %d..%d\n",
		st.NumUniv, st.NumExist, st.NumClauses, st.MinDepSize, st.MaxDepSize)

	bopts := backend.Options{Seed: *seed, PreprocWorkers: *ppWorkers}
	if *verbose {
		bopts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "c trace: "+format+"\n", args...)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	fmt.Printf("c engine: %s\n", be.Name())
	start := time.Now()
	res, serr := be.Synthesize(ctx, in, bopts)
	elapsed := time.Since(start)
	if serr != nil {
		if errors.Is(serr, backend.ErrFalse) {
			fmt.Println("s FALSE")
			return 0
		}
		fmt.Fprintln(os.Stderr, serr)
		return 2
	}
	vec := res.Vector
	if res.Stats != "" {
		fmt.Printf("c stats: %s\n", res.Stats)
	}
	if len(res.Phases) > 0 {
		// Phase breakdown: where the winning engine spent its time and its
		// oracle calls, phase by phase in execution order.
		parts := make([]string, len(res.Phases))
		for i, p := range res.Phases {
			parts[i] = fmt.Sprintf("%s %.3fs/%d", p.Name, p.Duration.Seconds(), p.OracleCalls)
		}
		fmt.Printf("c stats: phases: %s\n", strings.Join(parts, ", "))
	}
	if len(res.Attempts) > 0 {
		// Dispatch telemetry: every member invocation a portfolio, fallback
		// chain, or retry loop made on the way to this answer, in
		// chronological order.
		parts := make([]string, len(res.Attempts))
		for i, a := range res.Attempts {
			parts[i] = fmt.Sprintf("%s %s %.3fs", a.Engine, a.Outcome, a.Duration.Seconds())
			if a.Retries > 0 {
				parts[i] += fmt.Sprintf(" (retry %d)", a.Retries)
			}
		}
		fmt.Printf("c stats: attempts: %s\n", strings.Join(parts, ", "))
	}

	if *verify {
		vr, verr := dqbf.VerifyVector(in, vec, -1)
		if verr != nil {
			fmt.Fprintf(os.Stderr, "verification error: %v\n", verr)
			return 2
		}
		if !vr.Valid {
			fmt.Fprintln(os.Stderr, "INTERNAL ERROR: synthesized vector failed verification")
			return 2
		}
		fmt.Println("c verification: PASS")
	}
	fmt.Printf("c time: %.3fs\n", elapsed.Seconds())
	fmt.Println("s TRUE")
	if !*quiet {
		// Certificate lines (`v y<N> := <expr>`) — checkable by the
		// henkinverify tool.
		if err := dqbf.WriteCertificate(os.Stdout, vec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *verilog != "" {
		vf, err := os.Create(*verilog)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer vf.Close()
		outs := make(map[string]boolfunc.Node, len(vec.Funcs))
		for y, f := range vec.Funcs {
			outs[fmt.Sprintf("y%d", y)] = f
		}
		if err := vec.B.WriteVerilog(vf, "henkin", outs, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("c verilog written to %s\n", *verilog)
	}
	return 0
}
