package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/dqbf"
	"repro/internal/gen"
	"repro/internal/service"

	// cegar joins the backend registry for the portfolio spec; the other
	// engines register through the batch workloads' imports.
	_ "repro/internal/baselines/cegar"
)

// The serve workload runs two phases against one in-process internal/service
// server over loopback HTTP. First an open loop: requests become due on a
// seeded schedule at a fixed offered rate whatever the server does, and each
// is timed from when it was due; this sets the latency metrics. Then a closed
// loop over the same mix keeps every connection busy; its rate is the
// service's capacity, which sets the throughput metrics.

const (
	// serveRate is the open loop's offered load (README.md records the
	// capacity and spread measurements behind it).
	serveRate = 100.0
	// openLoopShare of --seconds is the open loop; the closed loop sends
	// capacityPerSecond requests per second of --seconds, which at the
	// measured capacity lasts about the rest.
	openLoopShare     = 0.6
	capacityPerSecond = 100
	// capacitySegments: the capacity is the median rate of this many equal
	// segments of the closed loop, which a burst of load from elsewhere on
	// the host moves less than the closed loop's total.
	capacitySegments = 10
	// serveConns client connections and serveWorkers server workers: the
	// client, the HTTP handlers and the worker share the host's 2 cores.
	serveConns   = 2
	serveWorkers = 1
	// serveDeadline is every request's deadline; no request comes near it,
	// and a failed or refused request is charged it as its latency.
	serveDeadline = 10 * time.Second
	// The verify cache (service.DefaultVerifyCacheFormulas = 32 formulas)
	// sees hotFormulas formulas take all requests but one in oneOffEvery;
	// that one goes to a one-off formula from the same families.
	hotFormulas = 16
	oneOffEvery = 5
	// portfolioShare of the requests for non-Skolem formulas race manthan3
	// against cegar, which rejects non-Skolem instances at once, so the
	// winner is always manthan3.
	portfolioShare = 0.25
	portfolioSpec  = "portfolio:manthan3+cegar"
	// bigCertBytes marks a large certificate in the report.
	bigCertBytes = 1 << 20
)

// formula is one instance the serve mix sends.
type formula struct {
	named gen.Named
	text  string
	hot   bool
}

// request is one scheduled request.
type request struct {
	formula int           // index into the formula list
	spec    string        // engine spec
	due     time.Duration // offset from the start of the measured region
}

// serveInputs is the generated serve mix of one run.
type serveInputs struct {
	formulas []formula
	reqs     []request
	bodies   [][]byte // one per request, shared between requests for one formula and spec
}

// quickFormulas streams instances manthan3 finishes quickly, chosen by
// generator-side properties only: planted random instances of tiers 1–3 and
// tier-1 controller instances, three random to one controller. Tiers 4–5
// are left out: their vectors render, one function at a time as a tree, to
// certificates of tens of MB and beyond (one tier-5 vector: 71 MB in 2.4 s;
// another exhausted a 3 GB address-space cap), which makes a run a memory
// hazard rather than a measurement. On tiers 1–3 about one formula
// in 300 still renders to 1–9 MB.
type quickFormulas struct {
	seed       int64
	nextRandom int
	nextCtrl   int
	n          int
}

func (q *quickFormulas) next() gen.Named {
	q.n++
	if q.n%4 == 0 {
		g := gen.Generate(gen.FamilyController, 5*q.nextCtrl, q.seed)
		q.nextCtrl++
		return g
	}
	for {
		g := gen.Generate(gen.FamilyRandom, q.nextRandom, q.seed)
		q.nextRandom++
		if g.Known == gen.TruthTrue && g.Hardness <= 3 {
			return g
		}
	}
}

// The formulas come from a fixed pool: the first poolSize quick formulas of
// generator seed poolSeed, the first hotFormulas of them the hot set, the
// rest the one-off tail. The workload seed draws the arrival jitter, the
// order of the hot requests, where in each block the one-off request falls,
// the order of the tail and the specs. Requests carry no engine seed, so the
// server's default pins it and each formula's certificate is the same in
// every run. A tail drawn per seed from the whole family turned up, in one
// of ten runs, a formula whose certificate renders to 210 MB in 6.8 s,
// blocking the only worker; this pool holds no certificate over a few MB.
const (
	poolSeed = 1
	poolSize = 640
)

// buildServeInputs generates a mix of n requests: the hot set, the schedule,
// and a tail formula for every request outside the hot set. The shares are
// exact rather than drawn: each block of oneOffEvery requests holds one
// tail request, and the hot requests cycle through the hot set, so every
// seed sends the verify cache the same share of hits.
func buildServeInputs(seed int64, n int, rate float64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	q := &quickFormulas{seed: poolSeed}
	pool := make([]gen.Named, poolSize)
	for i := range pool {
		pool[i] = q.next()
	}
	in := &serveInputs{}
	for _, g := range pool[:hotFormulas] {
		in.formulas = append(in.formulas, formula{named: g, hot: true})
	}
	// A run longer than the tail wraps around; by then the formula has long
	// left the verify cache.
	tail := rng.Perm(poolSize - hotFormulas)
	var hotOrder []int
	oneOff := 0
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		// Jittered uniform arrivals, seeded: reproducible but not metronomic.
		due := time.Duration(i)*interval + time.Duration(rng.Int63n(int64(interval)/2+1))
		if i%oneOffEvery == 0 {
			oneOff = i + rng.Intn(oneOffEvery)
		}
		var f int
		if i == oneOff {
			k := len(in.formulas) - hotFormulas
			f = len(in.formulas)
			in.formulas = append(in.formulas, formula{named: pool[hotFormulas+tail[k%len(tail)]]})
		} else {
			if len(hotOrder) == 0 {
				hotOrder = rng.Perm(hotFormulas)
			}
			f, hotOrder = hotOrder[0], hotOrder[1:]
		}
		spec := "manthan3"
		if rng.Float64() < portfolioShare && !in.formulas[f].named.DQBF.IsSkolem() {
			spec = portfolioSpec
		}
		in.reqs = append(in.reqs, request{formula: f, spec: spec, due: due})
	}
	for i := range in.formulas {
		var sb strings.Builder
		if err := dqbf.WriteDQDIMACS(&sb, in.formulas[i].named.DQBF); err != nil {
			return nil, err
		}
		in.formulas[i].text = sb.String()
	}
	cache := map[string][]byte{}
	for _, r := range in.reqs {
		key := fmt.Sprint(r.formula, r.spec)
		body, ok := cache[key]
		if !ok {
			var err error
			body, err = json.Marshal(service.Request{
				DQDIMACS:  in.formulas[r.formula].text,
				Spec:      r.spec,
				TimeoutMS: serveDeadline.Milliseconds(),
			})
			if err != nil {
				return nil, err
			}
			cache[key] = body
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// server is one in-process service listening on loopback.
type server struct {
	srv     *service.Server
	url     string
	serveCh chan error
}

func startServer() (*server, error) {
	srv, err := service.New(service.Config{
		Concurrency:     serveWorkers,
		DefaultDeadline: serveDeadline,
		MaxDeadline:     serveDeadline,
		// The engine worker settings bench.RunEngine uses.
		Workers: 1, PreprocWorkers: 1, VerifyWorkers: 1,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + l.Addr().String() + "/synthesize", serveCh: make(chan error, 1)}
	go func() { s.serveCh <- srv.Serve(l) }()
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	return errors.Join(err, <-s.serveCh)
}

// reply is what the client saw of one request.
type reply struct {
	sent, done time.Time
	code       int
	retryAfter bool
	bytes      int
	resp       service.Response // Functions dropped after counting
	funcs      int
	certBytes  int
	err        error // transport or decoding failure: an unclassified response
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: serveDeadline + 5*time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one request and reads the whole response.
func post(client *http.Client, url string, body []byte) reply {
	var r reply
	r.sent = time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.done, r.err = time.Now(), err
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(raw, &r.resp)
	}
	r.done = time.Now()
	r.code, r.bytes, r.err = resp.StatusCode, len(raw), err
	r.retryAfter = resp.Header.Get("Retry-After") != ""
	r.funcs = len(r.resp.Functions)
	for _, f := range r.resp.Functions {
		r.certBytes += len(f) + 1
	}
	r.resp.Functions = nil
	return r
}

// openLoop sends bodies[i] when dues[i] (an offset from start) comes, over at
// most conns connections. A request due while every connection is busy
// waits in the client, and that wait is part of its latency: replies keep
// when each request was actually sent. It returns once every request has a
// reply.
func openLoop(client *http.Client, url string, conns int, bodies [][]byte, dues []time.Duration, start time.Time) []reply {
	replies := make([]reply, len(bodies))
	ready := make(chan int, len(bodies)) // sized to the number of sends: the scheduler never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				replies[i] = post(client, url, bodies[i])
			}
		}()
	}
	for i, due := range dues {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		ready <- i
	}
	close(ready)
	wg.Wait()
	return replies
}

// serveSetup builds the inputs, boots the server and warms it: one request
// per hot formula, so their verification pools are loaded before timing, as
// on a server that has been up for a while.
func serveSetup(cfg config, n int, rate float64) (*serveInputs, *server, *http.Client, error) {
	in, err := buildServeInputs(cfg.seed, n, rate)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, spec := range []string{"manthan3", portfolioSpec} {
		if _, err := backend.Resolve(spec); err != nil {
			return nil, nil, nil, err
		}
	}
	s, err := startServer()
	if err != nil {
		return nil, nil, nil, err
	}
	client := newClient(serveConns)
	for i := 0; i < hotFormulas; i++ {
		body, err := json.Marshal(service.Request{
			DQDIMACS: in.formulas[i].text, TimeoutMS: serveDeadline.Milliseconds(),
		})
		if err != nil {
			return nil, nil, nil, errors.Join(err, s.stop())
		}
		if r := post(client, s.url, body); r.err != nil || r.code != http.StatusOK || r.resp.Outcome != backend.OutcomeOK {
			return nil, nil, nil, errors.Join(
				fmt.Errorf("warm-up request for %s: HTTP %d, outcome %q, %v", in.formulas[i].named.Name, r.code, r.resp.Outcome, r.err),
				s.stop())
		}
	}
	return in, s, client, nil
}

// runServe runs the serve workload on one server: the open loop, then the
// closed loop that measures capacity.
func runServe(cfg config) (*runResult, error) {
	nOpen := int(serveRate * openLoopShare * float64(cfg.seconds))
	nClosed := capacityPerSecond * cfg.seconds
	res := &runResult{workload: "serve", failLatency: serveDeadline, signature: map[string]string{}}
	var in *serveInputs
	var s *server
	var client *http.Client
	for i := 0; i < setupRepeats; i++ {
		in = nil
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var err error
		if in, s, client, err = serveSetup(cfg, nOpen+nClosed, serveRate); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0))
		if i < setupRepeats-1 {
			client.CloseIdleConnections()
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()

	dues := make([]time.Duration, nOpen)
	for i := range dues {
		dues[i] = in.reqs[i].due
	}
	before := s.srv.Stats()
	start := time.Now()
	replies := openLoop(client, s.url, serveConns, in.bodies[:nOpen], dues, start)
	openWall := lastDone(replies).Sub(start)
	after := s.srv.Stats()
	// Every due time 0: each connection sends its next request as soon as
	// its previous one returns.
	closedStart := time.Now()
	closed := openLoop(client, s.url, serveConns, in.bodies[nOpen:], make([]time.Duration, nClosed), closedStart)
	closedWall := lastDone(closed).Sub(closedStart)
	if err := s.stop(); err != nil {
		res.problemf("draining the server: %v", err)
	}
	client.CloseIdleConnections()
	res.wall = openWall + closedWall

	checkServeReplies(res, in, 0, replies, dues, start)
	checkServeReplies(res, in, nOpen, closed, nil, closedStart)
	good := 0
	for _, it := range res.items[nOpen:] {
		if it.solved {
			good++
		}
	}
	res.rate = median(segmentRates(closed, closedStart, capacitySegments))
	res.goodRate = res.rate * float64(good) / float64(nClosed)

	hits, misses := after.Verify.Hits-before.Verify.Hits, after.Verify.Misses-before.Verify.Misses
	hitRatio := float64(hits) / float64(max(1, hits+misses))
	hot, big, ok := 0, 0, 0
	for i, r := range in.reqs[:nOpen] {
		if in.formulas[r.formula].hot {
			hot++
		}
		if replies[i].resp.Outcome == backend.OutcomeOK {
			ok++
			if replies[i].certBytes > bigCertBytes {
				big++
			}
		}
	}
	res.notef("open loop: offered %.1f req/s (%.0f%% of the capacity below) over %d connections to %d server worker: %d requests in %.3f s",
		serveRate, 100*serveRate/res.rate, serveConns, serveWorkers, nOpen, openWall.Seconds())
	res.notef("open-loop mix: %.1f%% of requests to the %d hot formulas; verify-cache hit ratio %.3f (%d hits, %d misses); %.1f%% of OK responses carry a certificate over 1 MB",
		100*float64(hot)/float64(nOpen), hotFormulas, hitRatio, hits, misses, 100*float64(big)/float64(max(1, ok)))
	res.notef("closed loop: capacity %.1f req/s, %.1f verified/s (median of %d segments; %d requests in %.3f s, %.1f req/s overall)",
		res.rate, res.goodRate, capacitySegments, nClosed, closedWall.Seconds(), float64(nClosed)/closedWall.Seconds())
	if cfg.tracer != nil {
		res.layers = serveLayers(cfg, in, replies, dues, start, hitRatio, after.Shed-before.Shed)
	}
	return res, nil
}

// segmentRates splits replies, in the order they came back, into k equal
// consecutive segments and returns each one's rate in replies per second,
// the first timed from start.
func segmentRates(replies []reply, start time.Time, k int) []float64 {
	done := make([]time.Time, len(replies))
	for i, r := range replies {
		done[i] = r.done
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	rates := make([]float64, 0, k)
	prev, from := start, 0
	for s := 1; s <= k; s++ {
		to := s * len(done) / k
		rates = append(rates, float64(to-from)/done[to-1].Sub(prev).Seconds())
		prev, from = done[to-1], to
	}
	return rates
}

// lastDone is when the last of replies came back.
func lastDone(replies []reply) time.Time {
	var last time.Time
	for _, r := range replies {
		if r.done.After(last) {
			last = r.done
		}
	}
	return last
}

// checkServeReplies classifies the replies to the requests from in.reqs[first]
// on. An OK response must be verified and carry one function per
// existential; a False verdict contradicts the planted truth; an engine
// panic, a request decided by its deadline and anything without a
// classified outcome are problems; shed, refused or otherwise unsolved
// requests fail. With dues nil the replies come from the closed loop, whose
// items count but set no latency percentile.
func checkServeReplies(res *runResult, in *serveInputs, first int, replies []reply, dues []time.Duration, start time.Time) {
	for i, r := range replies {
		req := in.reqs[first+i]
		f := in.formulas[req.formula]
		it := item{name: req.spec + "/" + f.named.Name, latency: r.done.Sub(r.sent), closedLoop: true, outcome: r.resp.Outcome}
		if dues != nil {
			it.latency, it.closedLoop = r.done.Sub(start.Add(dues[i])), false
		}
		switch {
		case r.err != nil:
			it.outcome, it.failed = outcomeUnclassified, true
			res.problemf("request %d (%s): %v", i, it.name, r.err)
		case r.code == http.StatusOK && r.resp.Outcome == backend.OutcomeOK:
			switch {
			case !r.resp.Verified:
				it.failed = true
				res.problemf("request %d (%s): OK response without verified:true", i, it.name)
			case r.funcs != len(f.named.DQBF.Exist):
				it.failed = true
				res.problemf("request %d (%s): %d functions for %d existentials", i, it.name, r.funcs, len(f.named.DQBF.Exist))
			default:
				it.solved = true
			}
		case r.code == http.StatusOK && r.resp.Outcome == backend.OutcomeFalse:
			it.failed = true
			res.problemf("request %d (%s): False verdict on a planted-True instance", i, it.name)
		case r.code == http.StatusOK && r.resp.Outcome == backend.OutcomeInternal:
			it.failed = true
			res.problemf("request %d (%s): engine panic: %s", i, it.name, r.resp.Error)
		case r.code == http.StatusOK && r.resp.Outcome == backend.OutcomeCanceled:
			it.failed = true
			res.problemf("request %d (%s): decided by the %v deadline", i, it.name, serveDeadline)
		case r.code == http.StatusOK && (r.resp.Outcome == backend.OutcomeBudget || r.resp.Outcome == backend.OutcomeIncomplete ||
			r.resp.Outcome == backend.OutcomeTooLarge || r.resp.Outcome == backend.OutcomeUnsupported):
			it.failed = true // classified, but not solved
		case r.code == http.StatusTooManyRequests && r.retryAfter && r.resp.Outcome != "":
			it.outcome, it.failed = service.OutcomeShed, true
		case r.code == http.StatusServiceUnavailable && r.resp.Outcome != "":
			it.failed = true // draining or breaker open: refused
		default:
			it.outcome, it.failed = outcomeUnclassified, true
			res.problemf("request %d (%s): HTTP %d with outcome %q", i, it.name, r.code, r.resp.Outcome)
		}
		res.items = append(res.items, it)
		if r.code != http.StatusOK {
			continue // sheds and refusals depend on load, not on the instance
		}
		if prev, ok := res.signature[it.name]; ok && prev != it.outcome {
			res.problemf("%s: outcome %s, earlier in this run %s", it.name, it.outcome, prev)
		}
		res.signature[it.name] = it.outcome
	}
}

// serveLayers computes the serve workload's per-layer metrics and rebuilds
// its spans: per request, the client's wait for a connection, then the HTTP
// exchange, whose children are rebuilt from the response's queue/run/verify
// millis and phases (durations exact, offsets laid end to end from the send).
func serveLayers(cfg config, in *serveInputs, replies []reply, dues []time.Duration, start time.Time, hitRatio float64, shed int64) map[string]float64 {
	acc := newLayerAcc()
	tr := cfg.tracer
	// The server parses every request body; time the same call on the same
	// texts, once per formula.
	parseMS := make([]float64, len(in.formulas))
	for i, f := range in.formulas {
		t0 := time.Now()
		if _, err := dqbf.ParseDQDIMACS(strings.NewReader(f.text)); err == nil {
			parseMS[i] = ms(time.Since(t0))
		}
	}
	var queue, run, verify, outside, respKB, lag []float64
	attempts, useful := 0, 0
	root := tr.open(0, -1, "serve", start)
	for i, r := range replies {
		due := start.Add(dues[i])
		itemID := tr.open(root, i, "item", due)
		tr.add(itemID, i, "client.wait", due, r.sent)
		httpID := tr.add(itemID, i, "http", r.sent, r.done)
		tr.close(itemID, r.done)
		lag = append(lag, ms(r.sent.Sub(due)))
		acc.add("dqbf.parse_ms", parseMS[in.reqs[i].formula])
		if r.code != http.StatusOK || r.err != nil {
			continue
		}
		resp := r.resp
		queue = append(queue, resp.QueueMS)
		run = append(run, resp.RunMS)
		verify = append(verify, resp.VerifyMS)
		respKB = append(respKB, float64(r.bytes)/1024)
		var phaseMS float64
		names := make([]string, len(resp.Phases))
		durs := make([]time.Duration, len(resp.Phases))
		for k, p := range resp.Phases {
			phaseMS += p.MS
			acc.add("core."+strings.ReplaceAll(p.Name, "-", "_")+"_s", p.MS/1000)
			acc.add("core.oracle_calls", float64(p.OracleCalls))
			names[k], durs[k] = "core."+p.Name, msDuration(p.MS)
		}
		outside = append(outside, resp.RunMS-phaseMS)
		acc.add("dqbf.verify_ms", resp.VerifyMS)
		acc.add("dqbf.render_ms", max(0, resp.RunMS-phaseMS-resp.VerifyMS))
		acc.add("dqbf.certificate_kb", float64(r.certBytes)/1024)
		attempts += max(1, len(resp.Attempts))
		if len(resp.Attempts) == 0 {
			useful++
		}
		for _, a := range resp.Attempts {
			if a.Outcome == backend.OutcomeOK || a.Outcome == backend.OutcomeFalse {
				useful++
			} else {
				acc.add("backend.loser_ms", a.MS)
			}
		}

		queueEnd := r.sent.Add(msDuration(resp.QueueMS))
		tr.add(httpID, i, "service.queue", r.sent, queueEnd)
		runID := tr.add(httpID, i, "service.run", queueEnd, queueEnd.Add(msDuration(resp.RunMS)))
		callID := runID
		for _, a := range resp.Attempts {
			id := tr.add(runID, i, "backend.attempt", queueEnd, queueEnd.Add(msDuration(a.MS)))
			if a.Outcome == backend.OutcomeOK {
				callID = id
			}
		}
		tr.addSeq(callID, i, queueEnd, names, durs)
		verifyStart := queueEnd.Add(msDuration(phaseMS))
		tr.add(runID, i, "service.verify", verifyStart, verifyStart.Add(msDuration(resp.VerifyMS)))
	}
	tr.close(root, time.Now())

	p := func(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q).Value }
	acc.set("backend.attempts_per_request", float64(attempts)/float64(max(1, len(run))))
	acc.set("backend.useful_attempt_ratio", float64(useful)/float64(max(1, attempts)))
	acc.set("service.queue_ms_p50", p(queue, 50))
	acc.set("service.queue_ms_p99", p(queue, 99))
	acc.set("service.run_ms_p50", p(run, 50))
	acc.set("service.run_ms_p99", p(run, 99))
	acc.set("service.verify_ms_p50", p(verify, 50))
	acc.set("service.verify_ms_p99", p(verify, 99))
	acc.set("service.verify_hit_ratio", hitRatio)
	acc.set("service.outside_phases_ms_p99", p(outside, 99))
	acc.set("service.response_kb_p99", p(respKB, 99))
	acc.set("service.shed", float64(shed))
	acc.set("client.lag_ms_p99", p(lag, 99))
	return acc.m
}

func msDuration(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
