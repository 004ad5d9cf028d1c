// Command manthand runs the Henkin-function synthesis service: a
// long-running HTTP/JSON server over the internal/backend registry with
// admission control, per-engine circuit breakers, and graceful drain. The
// robustness machinery lives in internal/service (where the analyzer suite
// enforces its goroutine, context, and taxonomy contracts); this command is
// the thin front: flags → service.Config, a listener, and signal handling.
//
// Usage:
//
//	manthand [-listen 127.0.0.1:8501] [-queue 64] [-concurrency 4]
//	         [-default-timeout 5s] [-max-timeout 30s]
//	         [-breaker-threshold 3] [-breaker-cooldown 5s]
//	         [-fallback "manthan3=fallback:cegar>expand"]
//	         [-faults "stall(5ms)@1"] [-fault-seed 1]
//	         [-drain-timeout 30s] [-v] [-smoke]
//
// Endpoints (see cmd/manthand/README.md for the JSON contract):
//
//	POST /synthesize  synthesis request → verified vector or classified error
//	GET  /healthz     process liveness ("ok", "draining")
//	GET  /readyz      admission readiness (503 once draining)
//	GET  /statz       queue/breaker/verify/outcome telemetry
//
// SIGTERM/SIGINT starts a graceful drain: admission stops immediately
// (readyz flips, new requests get 503), queued and in-flight requests run to
// completion or their deadline, then the process exits 0. A drain that
// exceeds -drain-timeout exits 1.
//
// -faults wraps every request's resolved engine in a fresh
// internal/faultinject plan (same grammar as benchrunner -faults), making
// overload-under-failure soaks reproducible; it exists for testing and
// should never be set in real serving.
//
// -smoke runs the CI self-check instead of serving: bind an ephemeral port,
// POST one generated instance through portfolio:manthan3+cegar, require a
// verified vector, deliver SIGTERM to the running server, and require a
// clean drain — exit 0 only if every step held.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/service"

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
	listen := flag.String("listen", "127.0.0.1:8501", "listen address")
	queue := flag.Int("queue", service.DefaultQueueDepth, "admission queue hard cap; beyond it requests are shed with 429")
	concurrency := flag.Int("concurrency", service.DefaultConcurrency, "worker count draining the queue (max synthesis runs in flight)")
	defTimeout := flag.Duration("default-timeout", service.DefaultRequestDeadline, "per-request deadline when the client sends no timeout_ms hint")
	maxTimeout := flag.Duration("max-timeout", service.DefaultMaxDeadline, "upper clamp on client timeout_ms hints")
	maxConflicts := flag.Int64("max-conflicts", backend.DefaultSATConflictBudget, "upper clamp on client conflict_budget hints")
	retryAfter := flag.Duration("retry-after", service.DefaultRetryAfter, "Retry-After hint on shed (429) responses")
	brThreshold := flag.Int("breaker-threshold", service.DefaultBreakerThreshold, "consecutive internal/stall outcomes that trip an engine's breaker (negative disables)")
	brCooldown := flag.Duration("breaker-cooldown", service.DefaultBreakerCooldown, "how long a tripped breaker stays open before a half-open probe")
	fallbacks := flag.String("fallback", "", "breaker reroutes as spec=spec pairs, semicolon-separated (e.g. \"manthan3=fallback:cegar>expand\")")
	verifyBudget := flag.Int64("verify-budget", service.DefaultVerifyConflictBudget, "conflict budget for the service's independent response verification (negative disables verification)")
	faults := flag.String("faults", "", "fault-injection plan armed fresh per request (testing only): comma-separated kind@n rules, kinds panic/budget/unknown/cancel/stall(dur)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection plan seed")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget; exceeding it exits 1")
	verbose := flag.Bool("v", false, "log server events to stderr")
	smoke := flag.Bool("smoke", false, "run the CI self-check (ephemeral port, one request, SIGTERM, clean drain) and exit")
	flag.Parse()

	cfg := service.Config{
		QueueDepth:        *queue,
		Concurrency:       *concurrency,
		DefaultDeadline:   *defTimeout,
		MaxDeadline:       *maxTimeout,
		MaxConflictBudget: *maxConflicts,
		RetryAfter:        *retryAfter,
		Breaker: service.BreakerConfig{
			Threshold: *brThreshold,
			Cooldown:  *brCooldown,
		},
		VerifyConflictBudget: *verifyBudget,
	}
	if *fallbacks != "" {
		cfg.Fallbacks = make(map[string]string)
		for _, pair := range strings.Split(*fallbacks, ";") {
			from, to, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "manthand: -fallback entry %q is not spec=spec\n", pair)
				return 1
			}
			cfg.Fallbacks[strings.TrimSpace(from)] = strings.TrimSpace(to)
		}
	}
	if *faults != "" {
		rules, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		seed := *faultSeed
		// A fresh plan per request: each request sees the same deterministic
		// fault schedule, instead of one shared plan firing only on the
		// first requests.
		cfg.WrapBackend = func(b backend.Backend) backend.Backend {
			return faultinject.New(seed, rules...).Backend(b)
		}
		fmt.Fprintf(os.Stderr, "manthand: FAULT INJECTION ARMED: %s (seed %d)\n", *faults, seed)
	}
	if *verbose || *smoke {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "manthand: "+format+"\n", args...)
		}
	}

	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	addr := *listen
	if *smoke {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	serveErr := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				serveErr <- fmt.Errorf("serve panicked: %v", r)
			}
		}()
		serveErr <- srv.Serve(l)
	}()

	smokeRes := make(chan error, 1)
	if *smoke {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					smokeRes <- fmt.Errorf("smoke panicked: %v", r)
				}
			}()
			smokeRes <- runSmoke(l.Addr().String())
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	var smokeErr error
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "manthand: %v: draining (budget %v)\n", s, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "manthand: serve: %v\n", err)
		return 1
	case smokeErr = <-smokeRes:
		// Smoke drives its own request then falls through to the drain; the
		// SIGTERM it delivered to this process may still be in flight, so
		// don't wait for it.
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "manthand: drain: %v\n", err)
		return 1
	}
	if err := <-serveErr; err != nil {
		fmt.Fprintf(os.Stderr, "manthand: serve: %v\n", err)
		return 1
	}
	if smokeErr != nil {
		fmt.Fprintf(os.Stderr, "manthand: smoke: FAIL: %v\n", smokeErr)
		return 1
	}
	if *smoke {
		fmt.Println("manthand: smoke: PASS")
	}
	return 0
}

// runSmoke is the CI self-check: one generated instance POSTed through a
// racing portfolio, the response required to be a verified vector, then a
// real SIGTERM to this very process so the drain path under test is the
// production one.
func runSmoke(addr string) error {
	named := gen.Generate(gen.FamilyEquiv, 0, 1)
	var sb strings.Builder
	if err := dqbf.WriteDQDIMACS(&sb, named.DQBF); err != nil {
		return fmt.Errorf("rendering smoke instance: %w", err)
	}
	body, err := json.Marshal(service.Request{
		DQDIMACS:  sb.String(),
		Spec:      "portfolio:manthan3+cegar",
		TimeoutMS: 30_000,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+addr+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("POST /synthesize: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /synthesize: HTTP %d: %s", resp.StatusCode, raw)
	}
	var r service.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if r.Status != "ok" || !r.Verified || len(r.Functions) == 0 {
		return fmt.Errorf("want verified ok vector, got status=%q outcome=%q verified=%v functions=%d (%s)",
			r.Status, r.Outcome, r.Verified, len(r.Functions), r.Error)
	}
	fmt.Fprintf(os.Stderr, "manthand: smoke: verified vector from %s (queue %.1fms, run %.1fms, verify %.1fms)\n",
		r.Engine, r.QueueMS, r.RunMS, r.VerifyMS)
	// The real signal path: readyz must flip and the drain must finish.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return fmt.Errorf("self-SIGTERM: %w", err)
	}
	return nil
}
