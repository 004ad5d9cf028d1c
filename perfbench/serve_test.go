package main

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/service"
)

// Against a server that stalls on its first request, the open loop charges
// the stall to every request that came due behind it: latency runs from the
// due time, and the time spent waiting for the connection shows as lag,
// although each request's own exchange is quick.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"status":"ok","outcome":"ok","verified":true,"functions":["y2 := x1"],"queue_ms":0,"run_ms":1}`)
	}))
	defer stub.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	const n = 6
	bodies := make([][]byte, n)
	dues := make([]time.Duration, n)
	for i := range bodies {
		bodies[i] = []byte(`{}`)
		dues[i] = time.Duration(i) * 20 * time.Millisecond
	}
	start := time.Now()
	replies := openLoop(client, stub.URL, 1, bodies, dues, start)
	if got := calls.Load(); got != n {
		t.Fatalf("stub saw %d requests, want %d", got, n)
	}
	for i, r := range replies {
		if r.err != nil || r.code != http.StatusOK || r.funcs != 1 {
			t.Fatalf("request %d: HTTP %d, %d functions, err %v", i, r.code, r.funcs, r.err)
		}
		if i == 0 {
			continue
		}
		due := start.Add(dues[i])
		// Every later request was due before the stalled one returned.
		if lag := r.sent.Sub(due); lag < stall-dues[i]-10*time.Millisecond {
			t.Errorf("request %d: lag %v, want at least %v", i, lag, stall-dues[i])
		}
		if latency := r.done.Sub(due); latency < stall-dues[i] {
			t.Errorf("request %d: latency from due %v, want at least %v", i, latency, stall-dues[i])
		}
	}
	if exchange := replies[1].done.Sub(replies[1].sent); exchange >= stall/2 {
		t.Errorf("request 1's own exchange took %v; the stub answers it at once", exchange)
	}
}

// A stall in one segment of the closed loop slows that segment's rate only,
// so the median segment rate still reads the unstalled rate.
func TestSegmentRatesMedianIgnoresStall(t *testing.T) {
	start := time.Now()
	replies := make([]reply, 100)
	at := start
	for i := range replies {
		at = at.Add(10 * time.Millisecond)
		if i == 35 {
			at = at.Add(time.Second) // the stall
		}
		replies[len(replies)-1-i].done = at // completion order need not be slice order
	}
	rates := segmentRates(replies, start, 10)
	if len(rates) != 10 {
		t.Fatalf("%d segment rates, want 10", len(rates))
	}
	if got := median(rates); math.Abs(got-100) > 1e-6 {
		t.Errorf("median segment rate %.3f/s, want 100/s (rates %v)", got, rates)
	}
	if rates[3] > 10 {
		t.Errorf("the stalled segment reads %.1f/s, want under 10/s", rates[3])
	}
}

// Every reply is classified: an unverified OK, a False verdict on a planted
// instance, an engine panic, a request decided by its deadline, an outcome
// outside the taxonomy and an unreadable response are problems; sheds,
// refusals and budget stops fail without being problems; and every failed
// request is charged the deadline. Closed-loop replies count but set no
// latency percentile.
func TestServeRepliesClassified(t *testing.T) {
	ok := service.Response{Status: "ok", Outcome: "ok", Verified: true}
	replies := []reply{
		{code: 200, resp: ok},
		{code: 200, resp: service.Response{Status: "ok", Outcome: "ok"}},
		{code: 429, retryAfter: true, resp: service.Response{Status: "error", Outcome: service.OutcomeShed}},
		{code: 503, resp: service.Response{Status: "error", Outcome: service.OutcomeDraining}},
		{err: errors.New("connection reset")},
		{code: 200, resp: service.Response{Status: "false", Outcome: "false"}},
		{code: 200, resp: service.Response{Status: "error", Outcome: "budget"}},
		{code: 200, resp: service.Response{Status: "error", Outcome: "internal", Error: "panic: boom"}},
		{code: 200, resp: service.Response{Status: "error", Outcome: "canceled"}},
		{code: 200, resp: service.Response{Status: "error", Outcome: "error"}},
	}
	wantFailed := []bool{false, true, true, true, true, true, true, true, true, true}
	const wantProblems = 6

	q := &quickFormulas{seed: 1}
	in := &serveInputs{}
	start := time.Now()
	dues := make([]time.Duration, len(replies))
	for i := range replies {
		in.formulas = append(in.formulas, formula{named: q.next()})
		if in.formulas[i].named.Known != gen.TruthTrue {
			t.Fatalf("%s is not planted True", in.formulas[i].named.Name)
		}
		if replies[i].resp.Outcome == "ok" {
			replies[i].funcs = len(in.formulas[i].named.DQBF.Exist)
		}
		in.reqs = append(in.reqs, request{formula: i, spec: "manthan3"})
		replies[i].sent = start
		replies[i].done = start.Add(time.Millisecond)
	}
	res := &runResult{failLatency: serveDeadline, signature: map[string]string{}}
	checkServeReplies(res, in, 0, replies, dues, start)

	for i, it := range res.items {
		if it.failed != wantFailed[i] || it.solved != !wantFailed[i] {
			t.Errorf("reply %d (%s): failed %v solved %v, want failed %v", i, it.outcome, it.failed, it.solved, wantFailed[i])
		}
	}
	if len(res.problems) != wantProblems {
		t.Errorf("problems = %q, want %d: the unverified OK, the unreadable reply, the False verdict, the panic, the deadline and the unclassified outcome",
			res.problems, wantProblems)
	}
	lat := res.latencies()
	if lat[0] != 1 || lat[1] != float64(serveDeadline.Milliseconds()) {
		t.Errorf("latencies %v: want 1 ms for the one success and the deadline for each failure", lat)
	}
	// Only answers from the engines enter the outcome signature: sheds and
	// refusals depend on load, not on the instance.
	if len(res.signature) != 7 {
		t.Errorf("signature %v: want the seven HTTP 200 replies", res.signature)
	}

	// The same replies from the closed loop: classified alike, no latencies.
	closed := &runResult{failLatency: serveDeadline, signature: map[string]string{}}
	checkServeReplies(closed, in, 0, replies, nil, start)
	if len(closed.problems) != wantProblems || len(closed.items) != len(replies) || len(closed.latencies()) != 0 {
		t.Errorf("closed loop: %d problems, %d items, latencies %v; want %d, %d and none",
			len(closed.problems), len(closed.items), closed.latencies(), wantProblems, len(replies))
	}
}
