// serve-load mode: an open-loop load generator for the manthand synthesis
// service (internal/service). Open-loop means arrivals follow the configured
// rate regardless of how fast the server answers — the generator never waits
// for a response before sending the next request — which is the arrival
// model that actually exposes queue growth, shedding, and drain behavior
// under overload (a closed loop self-throttles and hides all three).
//
// Against "-serve-load self" the generator spins an in-process
// internal/service server (honoring -faults via a fresh per-request
// fault-injection plan, plus the -sl-queue/-sl-concurrency sizing) and
// drains it at the end, verifying the goroutine count returns to baseline.
// Against "-serve-load http://host:port" it drives an external server and
// skips the lifecycle checks.
//
// Every response must be classified: HTTP 200 with an outcome string from
// the shared taxonomy, 429 (shed) with Retry-After, or 503
// (draining/breaker). Transport errors and unclassifiable bodies fail the
// run. The report prints arrival/completion rates, p50/p95/p99 latency,
// outcome counts, and — in self mode — the server's own /statz totals, so a
// soak cell's acceptance (never crash, classify everything, shed at the
// cap, drain clean) is one exit code.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/service"
)

// serveLoadConfig carries the -serve-load flag set.
type serveLoadConfig struct {
	target      string // "self" or a base URL
	rate        float64
	duration    time.Duration
	spec        string
	instances   int
	timeoutMS   int64
	seed        int64
	faults      string
	queue       int
	concurrency int
}

// slResult is one request's observed fate.
type slResult struct {
	outcome string // taxonomy/service outcome, or "transport-error"
	code    int
	latency time.Duration
	err     error
}

// runServeLoad drives the load, prints the report, and returns the process
// exit code (0 = the soak contract held).
func runServeLoad(cfg serveLoadConfig) int {
	if cfg.rate <= 0 || cfg.duration <= 0 {
		fmt.Fprintln(os.Stderr, "serve-load: -sl-rate and -sl-duration must be positive")
		return 1
	}

	// Pre-render the request bodies: a cycling set of known-True instances
	// (warm verify pools on the server see repeat fingerprints, like real
	// repeat traffic).
	bodies := make([][]byte, cfg.instances)
	for i := range bodies {
		named := gen.Generate(gen.FamilyEquiv, i, cfg.seed)
		var sb strings.Builder
		if err := dqbf.WriteDQDIMACS(&sb, named.DQBF); err != nil {
			fmt.Fprintln(os.Stderr, "serve-load:", err)
			return 1
		}
		body, err := json.Marshal(service.Request{
			DQDIMACS:  sb.String(),
			Spec:      cfg.spec,
			TimeoutMS: cfg.timeoutMS,
			Seed:      cfg.seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve-load:", err)
			return 1
		}
		bodies[i] = body
	}

	baseURL := cfg.target
	var srv *service.Server
	var serveErr chan error
	baselineGoroutines := 0
	if cfg.target == "self" {
		scfg := service.Config{
			QueueDepth:  cfg.queue,
			Concurrency: cfg.concurrency,
			MaxDeadline: time.Duration(cfg.timeoutMS) * time.Millisecond * 2,
		}
		if cfg.faults != "" {
			rules, err := faultinject.Parse(cfg.faults)
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve-load:", err)
				return 1
			}
			seed := cfg.seed
			scfg.WrapBackend = func(b backend.Backend) backend.Backend {
				return faultinject.New(seed, rules...).Backend(b)
			}
			fmt.Printf("serve-load: fault injection armed: %s (seed %d)\n", cfg.faults, seed)
		}
		var err error
		srv, err = service.New(scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve-load:", err)
			return 1
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve-load:", err)
			return 1
		}
		baselineGoroutines = runtime.NumGoroutine()
		serveErr = make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					serveErr <- fmt.Errorf("serve panicked: %v", r)
				}
			}()
			serveErr <- srv.Serve(l)
		}()
		baseURL = "http://" + l.Addr().String()
	}
	baseURL = strings.TrimRight(baseURL, "/")

	// Open loop: one goroutine per arrival, fired on a jittered seeded
	// schedule. The HTTP client timeout is a backstop well past the
	// server-side deadline — classification must come from the server.
	client := &http.Client{Timeout: time.Duration(cfg.timeoutMS)*time.Millisecond + 10*time.Second}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	total := int(cfg.duration / interval)
	if total < 1 {
		total = 1
	}
	fmt.Printf("serve-load: %s for %v at %.1f req/s (%d requests, spec %q, %d distinct instances)\n",
		baseURL, cfg.duration, cfg.rate, total, cfg.spec, cfg.instances)

	rng := rand.New(rand.NewSource(cfg.seed))
	results := make([]slResult, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		// Jittered uniform arrivals: ±half an interval, seeded, so the
		// schedule is reproducible but not metronomic.
		next := time.Duration(i)*interval + time.Duration(rng.Int63n(int64(interval)))/2
		if sleep := time.Until(start.Add(next)); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					results[i] = slResult{outcome: "transport-error", err: fmt.Errorf("request panicked: %v", r)}
				}
			}()
			results[i] = postOne(client, baseURL, bodies[i%len(bodies)])
		}(i)
	}
	wg.Wait()
	loadWall := time.Since(start)

	// Lifecycle: in self mode, drain and require the goroutine count back at
	// baseline — the leak half of the soak contract.
	exit := 0
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve-load: drain: %v\n", err)
			exit = 1
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintf(os.Stderr, "serve-load: serve: %v\n", err)
			exit = 1
		}
		leaked := -1
		for wait := time.Millisecond; wait < 2*time.Second; wait *= 2 {
			if n := runtime.NumGoroutine(); n <= baselineGoroutines {
				leaked = 0
				break
			}
			time.Sleep(wait)
		}
		if leaked != 0 {
			fmt.Fprintf(os.Stderr, "serve-load: goroutine leak: %d now vs %d baseline\n",
				runtime.NumGoroutine(), baselineGoroutines)
			exit = 1
		}
	}

	// Report. Latencies are counted for every response the server classified
	// (including sheds — those are the fast path working as intended).
	counts := map[string]int{}
	var latencies []time.Duration
	transportErrs := 0
	for _, r := range results {
		counts[r.outcome]++
		if r.err != nil {
			transportErrs++
			if transportErrs <= 3 {
				fmt.Fprintf(os.Stderr, "serve-load: %v\n", r.err)
			}
			continue
		}
		latencies = append(latencies, r.latency)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	fmt.Printf("serve-load: %d requests in %v (%.1f/s completed)\n",
		total, loadWall.Round(time.Millisecond), float64(total)/loadWall.Seconds())
	fmt.Printf("serve-load: latency p50 %v, p95 %v, p99 %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	outcomes := make([]string, 0, len(counts))
	for o := range counts {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	parts := make([]string, len(outcomes))
	for i, o := range outcomes {
		parts[i] = fmt.Sprintf("%s=%d", o, counts[o])
	}
	fmt.Printf("serve-load: outcomes: %s\n", strings.Join(parts, ", "))
	if srv != nil {
		st := srv.Stats()
		fmt.Printf("serve-load: server: admitted=%d completed=%d shed=%d breaker-rejected=%d rerouted=%d\n",
			st.Admitted, st.Completed, st.Shed, st.BreakerRejected, st.Rerouted)
		fmt.Printf("serve-load: verify: warm=%d hits=%d misses=%d built=%d evicted=%d\n",
			st.Verify.WarmFormulas, st.Verify.Hits, st.Verify.Misses,
			st.Verify.SolversBuilt, st.Verify.SolversEvicted)
	}

	// The soak contract: every request got a classified response.
	if transportErrs > 0 {
		fmt.Fprintf(os.Stderr, "serve-load: FAIL: %d transport errors / unclassified responses\n", transportErrs)
		exit = 1
	}
	if exit == 0 {
		fmt.Println("serve-load: PASS")
	}
	return exit
}

// postOne sends one synthesis request and classifies the response. Accepted
// classifications: HTTP 200 with a non-empty outcome, 429 (shed), 503
// (draining/breaker open) — everything else is a contract violation.
func postOne(client *http.Client, baseURL string, body []byte) slResult {
	start := time.Now()
	resp, err := client.Post(baseURL+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return slResult{outcome: "transport-error", err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	latency := time.Since(start)
	if err != nil {
		return slResult{outcome: "transport-error", err: err}
	}
	var r service.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return slResult{outcome: "transport-error",
			err: fmt.Errorf("HTTP %d with undecodable body %.80q: %w", resp.StatusCode, raw, err)}
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if r.Outcome == "" {
			return slResult{outcome: "transport-error", code: resp.StatusCode,
				err: fmt.Errorf("HTTP %d response carries no outcome: %.120q", resp.StatusCode, raw)}
		}
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			return slResult{outcome: "transport-error", code: resp.StatusCode,
				err: fmt.Errorf("429 without Retry-After")}
		}
		return slResult{outcome: r.Outcome, code: resp.StatusCode, latency: latency}
	default:
		return slResult{outcome: "transport-error", code: resp.StatusCode,
			err: fmt.Errorf("unexpected HTTP %d: %.120q", resp.StatusCode, raw)}
	}
}
