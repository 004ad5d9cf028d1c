// Package service is the crash-proof synthesis service core behind
// cmd/manthand: a long-running HTTP/JSON server that accepts DQDIMACS
// instances plus a backend.Resolve engine spec and returns independently
// verified Skolem function vectors. The HTTP plumbing is deliberately thin;
// the substance is the robustness layer, every piece of which is
// deterministic-testable and fault-injectable:
//
//   - Admission control: a bounded work queue with a hard cap drained by a
//     fixed worker pool. A full queue sheds the request immediately with
//     429 and a Retry-After hint — requests are never queued unbounded —
//     and each admitted request gets an absolute deadline derived from the
//     client's hint, clamped by server policy, and threaded as a
//     context.Context all the way into the sat.Solver poll loops.
//
//   - Per-engine circuit breakers keyed on the shared error taxonomy:
//     consecutive backend.ErrInternal outcomes (engine panics) or stalls
//     into the server-clamped deadline trip the engine's breaker open;
//     requests naming a tripped engine fail fast with a classified 503 (or
//     reroute through the configured fallback spec), and half-open probes
//     close the breaker once the engine behaves again. See breaker.go.
//
//   - Graceful drain: Shutdown stops admission (readyz flips before the
//     listener closes), lets queued and in-flight requests run to
//     completion or deadline, and returns with zero leaked goroutines.
//
//   - Per-request panic isolation: every dispatch runs through
//     backend.Resolve's Protect wrapper plus a per-request recover in the
//     worker, so a broken engine yields a classified ErrInternal response,
//     never a crashed process. Verification runs on warm, content-addressed
//     oracle.Pools reused across requests (see verify.go), with panicking
//     solvers evicted.
//
// Telemetry: per-response queue/run/verify timings, phase and dispatch
// attempt stats, plus a process-wide /statz endpoint (outcome counts, shed
// and reroute totals, breaker states, warm-pool counters).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
)

// Config tunes the service. The zero value gives usable defaults.
type Config struct {
	// QueueDepth is the admission queue's hard cap: requests beyond it are
	// shed immediately with 429. 0 means DefaultQueueDepth.
	QueueDepth int
	// Concurrency is the worker count draining the queue — the maximum
	// number of synthesis runs in flight. 0 means DefaultConcurrency.
	Concurrency int
	// DefaultDeadline applies when a request carries no timeout hint;
	// MaxDeadline clamps every hint from above. Zero values mean
	// DefaultRequestDeadline / DefaultMaxDeadline. The deadline is absolute
	// from admission, so time spent queued counts against it.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxConflictBudget clamps the per-request SAT conflict-budget hint.
	// 0 means backend.DefaultSATConflictBudget.
	MaxConflictBudget int64
	// RetryAfter is the Retry-After hint attached to shed (429) responses.
	// 0 means DefaultRetryAfter.
	RetryAfter time.Duration
	// Breaker configures the per-engine circuit breakers.
	Breaker BreakerConfig
	// Fallbacks maps an engine spec to the spec requests are rerouted
	// through while the primary's breaker is open. Fallback specs must
	// resolve; they get (and are gated by) breakers of their own.
	Fallbacks map[string]string

	// Workers, PreprocWorkers and VerifyWorkers are ignored, since a
	// manthan3 run is serial. They stay only because the benchmark module
	// (perfbench) sets them.
	Workers, PreprocWorkers, VerifyWorkers int

	// VerifyConflictBudget bounds each response verification; 0 means
	// DefaultVerifyConflictBudget, negative disables verification (trust
	// the engines — not recommended outside benchmarks).
	VerifyConflictBudget int64

	// WrapBackend, when non-nil, wraps every request's resolved backend
	// before dispatch — the fault-injection seam (a fresh
	// faultinject.Plan per request makes fault schedules deterministic
	// per request). The wrapped backend still runs under Protect.
	WrapBackend func(backend.Backend) backend.Backend

	// Logf, when non-nil, receives one line per notable server event
	// (start, drain, breaker transitions); nil disables logging.
	Logf func(format string, args ...any)

	// now is the test seam for breaker clocks; nil means time.Now.
	now func() time.Time
}

// Config defaults.
const (
	DefaultQueueDepth           = 64
	DefaultConcurrency          = 4
	DefaultRequestDeadline      = 5 * time.Second
	DefaultMaxDeadline          = 30 * time.Second
	DefaultRetryAfter           = time.Second
	DefaultVerifyConflictBudget = 200000
)

// Warm-verifier sizing, fixed for every server: DefaultVerifyCacheFormulas
// formulas keep warm verification pools (LRU beyond it), each pool holds
// DefaultVerifyPoolSize solvers, and a pooled solver retires after
// DefaultVerifySolverMaxUses verifications, because its variable tables
// grow with each one.
const (
	DefaultVerifyCacheFormulas = 32
	DefaultVerifyPoolSize      = 2
	DefaultVerifySolverMaxUses = 64
)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Concurrency <= 0 {
		c.Concurrency = DefaultConcurrency
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultRequestDeadline
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = DefaultMaxDeadline
	}
	if c.DefaultDeadline > c.MaxDeadline {
		c.DefaultDeadline = c.MaxDeadline
	}
	if c.MaxConflictBudget <= 0 {
		c.MaxConflictBudget = backend.DefaultSATConflictBudget
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.VerifyConflictBudget == 0 {
		c.VerifyConflictBudget = DefaultVerifyConflictBudget
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Service-level outcome strings: admission and routing outcomes that happen
// before (or instead of) a dispatch, alongside the backend.Outcome* classes.
const (
	// OutcomeShed: the admission queue was at its hard cap; the request was
	// rejected with 429 and a Retry-After hint, never queued.
	OutcomeShed = "shed"
	// OutcomeDraining: the server is shutting down and no longer admits.
	OutcomeDraining = "draining"
	// OutcomeBreakerOpen: the named engine's circuit breaker is open and no
	// fallback was configured (or the fallback's breaker is open too).
	OutcomeBreakerOpen = "breaker-open"
)

// Request is the /synthesize request body.
type Request struct {
	// DQDIMACS is the instance text (required).
	DQDIMACS string `json:"dqdimacs"`
	// Spec is the engine spec (backend.Resolve grammar); empty means
	// "manthan3".
	Spec string `json:"spec,omitempty"`
	// TimeoutMS is the client's deadline hint in milliseconds, clamped by
	// the server's MaxDeadline; 0 means the server's DefaultDeadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// ConflictBudget is the per-oracle-call SAT conflict budget hint,
	// clamped by the server's MaxConflictBudget; 0 means the engine default.
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	// Seed pins engine randomization; 0 means seed 1.
	Seed int64 `json:"seed,omitempty"`
}

// PhaseJSON mirrors backend.PhaseStat for the response body.
type PhaseJSON struct {
	Name        string  `json:"name"`
	MS          float64 `json:"ms"`
	OracleCalls int64   `json:"oracle_calls"`
}

// AttemptJSON mirrors backend.AttemptStat for the response body.
type AttemptJSON struct {
	Engine  string  `json:"engine"`
	Outcome string  `json:"outcome"`
	MS      float64 `json:"ms"`
	Retries int     `json:"retries,omitempty"`
}

// Response is the /synthesize response body. Every response carries a
// taxonomy-classified outcome: "ok" and "false" are the definitive answers,
// everything else names the failure class (backend.Outcome* strings, or the
// service-level shed/draining/breaker-open).
type Response struct {
	Status   string `json:"status"` // "ok", "false", or "error"
	Outcome  string `json:"outcome"`
	Engine   string `json:"engine,omitempty"`
	Rerouted bool   `json:"rerouted,omitempty"`
	Error    string `json:"error,omitempty"`
	// Functions holds the verified certificate lines ("y<N> := <expr>").
	Functions []string      `json:"functions,omitempty"`
	Verified  bool          `json:"verified,omitempty"`
	Stats     string        `json:"stats,omitempty"`
	Phases    []PhaseJSON   `json:"phases,omitempty"`
	Attempts  []AttemptJSON `json:"attempts,omitempty"`
	QueueMS   float64       `json:"queue_ms"`
	RunMS     float64       `json:"run_ms"`
	VerifyMS  float64       `json:"verify_ms,omitempty"`
}

// task is one admitted request moving through the queue.
type task struct {
	ctx      context.Context
	cancel   context.CancelFunc
	in       *dqbf.Instance
	fp       string
	spec     string          // requested spec (breaker key)
	be       backend.Backend // resolved primary
	fbSpec   string          // fallback spec actually routed to ("" = primary)
	fbBE     backend.Backend // resolved fallback when rerouted
	opts     backend.Options
	admitted time.Time
	result   chan *Response // buffered(1): worker send never blocks
}

// Server is one service instance. Create with New, start with Serve, stop
// with Shutdown.
type Server struct {
	cfg      Config
	verifier *verifier
	mux      *http.ServeMux
	httpSrv  *http.Server

	queue   chan *task
	admitMu sync.RWMutex // write-held only while flipping draining
	drained bool

	wg sync.WaitGroup // workers

	brMu     sync.Mutex
	breakers map[string]*breaker

	st serverStats
}

// serverStats aggregates process-wide counters for /statz.
type serverStats struct {
	mu              sync.Mutex
	admitted        int64
	completed       int64
	shed            int64
	drainRejected   int64
	breakerRejected int64
	rerouted        int64
	inFlight        int
	outcomes        map[string]int64
	queueWaitTotal  time.Duration
	runTotal        time.Duration
}

// New builds a Server from cfg (missing fields defaulted). Fallback specs
// are validated eagerly so a typo fails at startup, not on the first trip.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	for from, to := range cfg.Fallbacks {
		if _, err := backend.Resolve(to); err != nil {
			return nil, fmt.Errorf("service: fallback for %q: %w", from, err)
		}
	}
	s := &Server{
		cfg: cfg,
		verifier: newVerifier(DefaultVerifyCacheFormulas, DefaultVerifyPoolSize,
			DefaultVerifySolverMaxUses, cfg.VerifyConflictBudget),
		queue:    make(chan *task, cfg.QueueDepth),
		breakers: make(map[string]*breaker),
	}
	s.st.outcomes = make(map[string]int64)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /synthesize", s.handleSynthesize)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	return s, nil
}

// Handler exposes the service's HTTP mux (useful for tests via
// httptest.Server; production callers use Serve).
func (s *Server) Handler() http.Handler { return s.mux }

// StartWorkers launches the admission-queue worker pool. Serve calls it;
// call it directly when driving the mux through a test server.
func (s *Server) StartWorkers() {
	s.wg.Add(s.cfg.Concurrency)
	for i := 0; i < s.cfg.Concurrency; i++ {
		go s.workerLoopSafe()
	}
}

// Serve runs the HTTP server on l until Shutdown; it returns nil after a
// clean shutdown (http.ErrServerClosed is folded away).
func (s *Server) Serve(l net.Listener) error {
	s.StartWorkers()
	s.httpSrv = &http.Server{Handler: s.mux}
	s.logf("serving on http://%s (queue %d, concurrency %d, deadline %v..%v)",
		l.Addr(), s.cfg.QueueDepth, s.cfg.Concurrency, s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: admission stops immediately (readyz flips,
// new requests get 503), queued and in-flight requests run to completion or
// their deadline, the worker pool exits, and finally the HTTP listener
// closes. Returns ctx.Err if ctx expires first (workers keep draining in
// the background in that case). Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.drained
	s.drained = true
	s.admitMu.Unlock()
	if already {
		return nil
	}
	s.logf("draining: admission stopped, %d queued, %d in flight", len(s.queue), s.inFlight())
	close(s.queue) // workers finish the backlog, then exit
	done := make(chan struct{})
	go func() {
		defer func() { _ = recover() }() // gorecover contract; Wait cannot panic
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	s.logf("drained: %d requests completed", s.completedCount())
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.drained
}

func (s *Server) inFlight() int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.inFlight
}

func (s *Server) completedCount() int64 {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.completed
}

// breakerFor returns (creating on first sight) the breaker keyed by spec.
func (s *Server) breakerFor(spec string) *breaker {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	b, ok := s.breakers[spec]
	if !ok {
		b = newBreaker(s.cfg.Breaker, s.cfg.now)
		s.breakers[spec] = b
	}
	return b
}

// writeJSON writes one JSON response with the given HTTP status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone ⇒ write error; nothing useful to do
}

// maxBodyBytes caps /synthesize uploads; DQDIMACS beyond this is a client
// error, not an excuse to exhaust server memory.
const maxBodyBytes = 64 << 20

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{
			Status: "error", Outcome: "bad-request",
			Error: fmt.Sprintf("decoding request body: %v", err),
		})
		return
	}
	in, err := dqbf.ParseDQDIMACS(strings.NewReader(req.DQDIMACS))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{
			Status: "error", Outcome: "bad-request",
			Error: fmt.Sprintf("parsing dqdimacs: %v", err),
		})
		return
	}
	spec := strings.TrimSpace(req.Spec)
	if spec == "" {
		spec = "manthan3"
	}
	be, err := backend.Resolve(spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &Response{
			Status: "error", Outcome: "bad-request", Error: err.Error(),
		})
		return
	}

	// Deadline and budget: client hints clamped by server policy. The
	// deadline is absolute from admission — queue wait spends it.
	deadline := s.cfg.DefaultDeadline
	if req.TimeoutMS > 0 {
		deadline = time.Duration(req.TimeoutMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	budget := req.ConflictBudget
	if budget < 0 {
		budget = 0
	}
	if budget > s.cfg.MaxConflictBudget {
		budget = s.cfg.MaxConflictBudget
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	t := &task{
		in:   in,
		fp:   Fingerprint(in),
		spec: spec,
		be:   be,
		opts: backend.Options{
			Seed:              seed,
			SATConflictBudget: budget,
		},
		result: make(chan *Response, 1),
	}

	// Circuit breaker: fail fast (or reroute) before consuming a queue
	// slot. The probe slot a half-open breaker grants is held through the
	// queue — Record is guaranteed by the worker for every admitted task.
	primary := s.breakerFor(spec)
	if !primary.Admit() {
		if fbSpec, ok := s.cfg.Fallbacks[spec]; ok {
			if fb := s.breakerFor(fbSpec); fb.Admit() {
				fbBE, err := backend.Resolve(fbSpec)
				if err != nil {
					// Validated at New; a registry change mid-flight is the
					// only way here.
					fb.Record(true)
					writeJSON(w, http.StatusInternalServerError, &Response{
						Status: "error", Outcome: OutcomeBreakerOpen, Error: err.Error(),
					})
					return
				}
				s.countReroute()
				t.fbSpec, t.fbBE = fbSpec, fbBE
			} else {
				s.rejectBreakerOpen(w, spec, fbSpec)
				return
			}
		} else {
			s.rejectBreakerOpen(w, spec, "")
			return
		}
	}

	// Admission: draining servers reject, a full queue sheds — the request
	// is never parked anywhere unbounded. The RLock pairs with Shutdown's
	// write lock so a send can never race the queue close.
	s.admitMu.RLock()
	if s.drained {
		s.admitMu.RUnlock()
		s.recordUnadmitted(t)
		s.countDrainRejected()
		writeJSON(w, http.StatusServiceUnavailable, &Response{
			Status: "error", Outcome: OutcomeDraining,
			Error: "server is draining; not admitting new requests",
		})
		return
	}
	t.admitted = time.Now()
	t.ctx, t.cancel = context.WithDeadline(r.Context(), t.admitted.Add(deadline))
	defer t.cancel()
	select {
	case s.queue <- t:
		s.admitMu.RUnlock()
		s.countAdmitted()
	default:
		s.admitMu.RUnlock()
		t.cancel()
		s.recordUnadmitted(t)
		s.countShed()
		w.Header().Set("Retry-After",
			strconv.FormatInt(int64((s.cfg.RetryAfter+time.Second-1)/time.Second), 10))
		writeJSON(w, http.StatusTooManyRequests, &Response{
			Status: "error", Outcome: OutcomeShed,
			Error: fmt.Sprintf("admission queue full (%d deep); retry after %v",
				s.cfg.QueueDepth, s.cfg.RetryAfter),
		})
		return
	}

	// The worker owns the task now; its send is buffered so it never
	// blocks, and the client disconnecting cancels t.ctx via r.Context().
	res := <-t.result
	writeJSON(w, http.StatusOK, res)
}

// recordUnadmitted releases the breaker slot of a task that was turned away
// at admission (the breaker Admit was already consumed).
func (s *Server) recordUnadmitted(t *task) {
	// The engine never ran; the rejection says nothing about its health.
	// A half-open probe slot is released without a verdict by re-entering
	// Record with healthy=true only if the breaker is half-open probing —
	// but an unadmitted probe should neither close nor reopen the breaker.
	// The state machine has no "abstain", so treat it as healthy=false is
	// wrong and healthy=true would close a half-open breaker untested.
	// Instead: only the probing flag must be cleared. abandonProbe does
	// exactly that.
	s.breakerFor(s.routedSpec(t)).abandonProbe()
}

// routedSpec names the breaker the task was admitted under.
func (s *Server) routedSpec(t *task) string {
	if t.fbSpec != "" {
		return t.fbSpec
	}
	return t.spec
}

func (s *Server) rejectBreakerOpen(w http.ResponseWriter, spec, fbSpec string) {
	s.countBreakerRejected()
	msg := fmt.Sprintf("engine %q circuit breaker is open", spec)
	if fbSpec != "" {
		msg += fmt.Sprintf(" (fallback %q breaker open too)", fbSpec)
	}
	w.Header().Set("Retry-After",
		strconv.FormatInt(int64((s.cfg.Breaker.withDefaults().Cooldown+time.Second-1)/time.Second), 10))
	writeJSON(w, http.StatusServiceUnavailable, &Response{
		Status: "error", Outcome: OutcomeBreakerOpen, Error: msg,
	})
}

// workerLoopSafe drains the admission queue until it closes. Each request
// runs under its own recover (serveOne → runRequestSafe), so the loop —
// hence the worker pool — survives anything a request does.
func (s *Server) workerLoopSafe() {
	defer s.wg.Done()
	defer func() { _ = recover() }() // belt: a worker must never kill the pool
	for t := range s.queue {
		s.serveOne(t)
	}
}

// serveOne runs one admitted task end to end and delivers its Response.
func (s *Server) serveOne(t *task) {
	start := time.Now()
	queueWait := start.Sub(t.admitted)
	s.countStarted()
	res := s.runRequestSafe(t)
	res.QueueMS = float64(queueWait) / float64(time.Millisecond)
	res.RunMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.countFinished(res.Outcome, queueWait, time.Since(start))
	t.result <- res
}

// runRequestSafe is the per-request panic boundary: whatever the dispatch,
// verification, or response assembly does, the worker gets a classified
// Response back. The engines are already wrapped in backend.Protect (and
// pool workers recover internally); this recover catches service-side bugs
// and anything that slips a boundary.
func (s *Server) runRequestSafe(t *task) (res *Response) {
	defer func() {
		if r := recover(); r != nil {
			res = s.classifyResponse(t,
				fmt.Errorf("%w: request handler panicked: %v", backend.ErrInternal, r))
		}
	}()
	return s.runRequest(t)
}

func (s *Server) runRequest(t *task) *Response {
	routed := s.routedSpec(t)
	br := s.breakerFor(routed)
	if t.ctx.Err() != nil {
		// Deadline or disconnect while queued: classify, never dispatch.
		// The engine never ran, so the breaker learns nothing.
		br.abandonProbe()
		return s.classifyResponse(t,
			fmt.Errorf("%w: expired in admission queue: %w", backend.ErrCanceled, t.ctx.Err()))
	}
	be := t.be
	if t.fbBE != nil {
		be = t.fbBE
	}
	if s.cfg.WrapBackend != nil {
		be = backend.Protect(s.cfg.WrapBackend(be))
	}
	result, err := be.Synthesize(t.ctx, t.in, t.opts)
	br.Record(!s.unhealthyOutcome(t, err))
	if err != nil {
		return s.classifyResponse(t, err)
	}

	res := &Response{
		Status:   "ok",
		Outcome:  backend.OutcomeOK,
		Engine:   routed,
		Rerouted: t.fbSpec != "",
		Stats:    result.Stats,
	}
	for _, p := range result.Phases {
		res.Phases = append(res.Phases, PhaseJSON{
			Name: p.Name, MS: float64(p.Duration) / float64(time.Millisecond),
			OracleCalls: p.OracleCalls,
		})
	}
	for _, a := range result.Attempts {
		res.Attempts = append(res.Attempts, AttemptJSON{
			Engine: a.Engine, Outcome: a.Outcome,
			MS: float64(a.Duration) / float64(time.Millisecond), Retries: a.Retries,
		})
	}

	if s.cfg.VerifyConflictBudget >= 0 {
		vStart := time.Now()
		verr := s.verifier.verify(t.ctx, t.fp, t.in, result.Vector)
		res.VerifyMS = float64(time.Since(vStart)) / float64(time.Millisecond)
		if verr != nil {
			out := s.classifyResponse(t, verr)
			out.VerifyMS = res.VerifyMS
			out.Engine = routed
			out.Rerouted = res.Rerouted
			return out
		}
		res.Verified = true
	}

	var sb strings.Builder
	if err := dqbf.WriteCertificate(&sb, result.Vector); err != nil {
		return s.classifyResponse(t,
			fmt.Errorf("%w: rendering certificate: %w", backend.ErrInternal, err))
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		res.Functions = append(res.Functions, strings.TrimPrefix(line, "v "))
	}
	return res
}

// unhealthyOutcome decides what the breaker counts against an engine:
// internal errors (panics) always, and stalls — runs that died on the
// request's deadline rather than the client hanging up. Budget exhaustion,
// documented incompleteness, size/fragment limits, and proper False proofs
// are all healthy: the engine answered for itself.
func (s *Server) unhealthyOutcome(t *task, err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, backend.ErrInternal) {
		return true
	}
	return errors.Is(err, backend.ErrCanceled) && errors.Is(err, context.DeadlineExceeded)
}

// classifyResponse builds the error Response for err, carrying the taxonomy
// class in Outcome. ErrFalse is a definitive answer, not an error.
func (s *Server) classifyResponse(t *task, err error) *Response {
	if errors.Is(err, backend.ErrFalse) {
		return &Response{
			Status:  "false",
			Outcome: backend.OutcomeFalse,
			Engine:  s.routedSpec(t),
		}
	}
	return &Response{
		Status:  "error",
		Outcome: backend.Classify(err),
		Engine:  s.routedSpec(t),
		Error:   err.Error(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// Statz is the /statz body: process-wide robustness telemetry.
type Statz struct {
	Draining        bool                       `json:"draining"`
	QueueDepth      int                        `json:"queue_depth"`
	QueueCap        int                        `json:"queue_cap"`
	InFlight        int                        `json:"in_flight"`
	Admitted        int64                      `json:"admitted"`
	Completed       int64                      `json:"completed"`
	Shed            int64                      `json:"shed"`
	DrainRejected   int64                      `json:"drain_rejected"`
	BreakerRejected int64                      `json:"breaker_rejected"`
	Rerouted        int64                      `json:"rerouted"`
	Outcomes        map[string]int64           `json:"outcomes"`
	QueueWaitMSAvg  float64                    `json:"queue_wait_ms_avg"`
	RunMSAvg        float64                    `json:"run_ms_avg"`
	Breakers        map[string]BreakerSnapshot `json:"breakers"`
	Verify          VerifyStats                `json:"verify"`
}

// Stats snapshots the server's robustness telemetry (the /statz body).
func (s *Server) Stats() Statz {
	s.st.mu.Lock()
	out := Statz{
		QueueDepth:      len(s.queue),
		QueueCap:        s.cfg.QueueDepth,
		InFlight:        s.st.inFlight,
		Admitted:        s.st.admitted,
		Completed:       s.st.completed,
		Shed:            s.st.shed,
		DrainRejected:   s.st.drainRejected,
		BreakerRejected: s.st.breakerRejected,
		Rerouted:        s.st.rerouted,
		Outcomes:        make(map[string]int64, len(s.st.outcomes)),
	}
	for k, v := range s.st.outcomes {
		out.Outcomes[k] = v
	}
	if s.st.completed > 0 {
		out.QueueWaitMSAvg = float64(s.st.queueWaitTotal) / float64(s.st.completed) / float64(time.Millisecond)
		out.RunMSAvg = float64(s.st.runTotal) / float64(s.st.completed) / float64(time.Millisecond)
	}
	s.st.mu.Unlock()
	out.Draining = s.draining()
	out.Breakers = make(map[string]BreakerSnapshot)
	s.brMu.Lock()
	for spec, b := range s.breakers {
		out.Breakers[spec] = b.snapshot()
	}
	s.brMu.Unlock()
	out.Verify = s.verifier.stats()
	return out
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) countAdmitted() {
	s.st.mu.Lock()
	s.st.admitted++
	s.st.mu.Unlock()
}

func (s *Server) countStarted() {
	s.st.mu.Lock()
	s.st.inFlight++
	s.st.mu.Unlock()
}

func (s *Server) countFinished(outcome string, queueWait, run time.Duration) {
	s.st.mu.Lock()
	s.st.inFlight--
	s.st.completed++
	s.st.outcomes[outcome]++
	s.st.queueWaitTotal += queueWait
	s.st.runTotal += run
	s.st.mu.Unlock()
}

func (s *Server) countShed() {
	s.st.mu.Lock()
	s.st.shed++
	s.st.outcomes[OutcomeShed]++
	s.st.mu.Unlock()
}

func (s *Server) countDrainRejected() {
	s.st.mu.Lock()
	s.st.drainRejected++
	s.st.outcomes[OutcomeDraining]++
	s.st.mu.Unlock()
}

func (s *Server) countBreakerRejected() {
	s.st.mu.Lock()
	s.st.breakerRejected++
	s.st.outcomes[OutcomeBreakerOpen]++
	s.st.mu.Unlock()
}

func (s *Server) countReroute() {
	s.st.mu.Lock()
	s.st.rerouted++
	s.st.mu.Unlock()
}
