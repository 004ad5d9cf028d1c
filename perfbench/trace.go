package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one item share Item;
// the chain is workload → item → layer call → phases rebuilt from what the
// call returned.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the workload span
	Item   int    `json:"item"`   // -1 outside any item
	Name   string `json:"name"`
	Start  int64  `json:"start_us"` // offsets from the trace origin
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory; they are written once, when the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, item int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Item: item, Name: name,
		Start: start.Sub(t.origin).Microseconds(), End: end.Sub(t.origin).Microseconds(),
	})
	return id
}

// open records a span whose end is not known yet, so its children can name
// it as their parent; close sets the end.
func (t *tracer) open(parent, item int, name string, start time.Time) int {
	return t.add(parent, item, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.origin).Microseconds()
	t.mu.Unlock()
}

// addSeq records consecutive child spans laid end to end from start, one per
// (name, duration) pair — how phase telemetry returned by a call becomes
// child spans of that call.
func (t *tracer) addSeq(parent, item int, start time.Time, names []string, durs []time.Duration) {
	for i, name := range names {
		end := start.Add(durs[i])
		t.add(parent, item, name, start, end)
		start = end
	}
}

// selfTimes sums each span name's self time: its duration minus the part of
// its interval that its children cover (overlapping children, such as racing
// portfolio members, are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := coveredUS(s, children[s.ID])
		out[s.Name] += time.Duration(s.End-s.Start-covered) * time.Microsecond
	}
	return out
}

// coveredUS is the length of the union of the children's intervals, clipped
// to the parent's.
func coveredUS(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSelfTimes prints the self-time table, largest first.
func writeSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  self time by span (%d spans):\n", len(spans))
	for _, n := range names {
		fmt.Fprintf(w, "    %-34s %10.3f s\n", n, self[n].Seconds())
	}
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreProgress timestamps the Manthan3 engine's public Logf progress lines,
// which is how a traced run splits runs that return no Result (and so no
// phase telemetry) from outside: the preprocess summary closes preprocess,
// "learned …" closes learn, and one line follows each repair iteration. It
// never formats the arguments, so tracing adds no string building.
type coreProgress struct {
	preprocessed time.Time
	learned      time.Time
	iterations   []time.Time
}

func (p *coreProgress) reset() {
	p.preprocessed, p.learned = time.Time{}, time.Time{}
	p.iterations = p.iterations[:0]
}

func (p *coreProgress) logf(format string, _ ...any) {
	now := time.Now()
	switch {
	case strings.HasPrefix(format, "repair iteration"):
		p.iterations = append(p.iterations, now)
	case strings.HasPrefix(format, "learned "):
		p.learned = now
	case strings.HasPrefix(format, "preprocess:"):
		p.preprocessed = now
	}
}

// iterationGaps appends the durations of the repair iterations: the first
// runs from the "learned" line, each later one from the previous iteration.
func (p *coreProgress) iterationGaps(dst []float64) []float64 {
	prev := p.learned
	for _, t := range p.iterations {
		if !prev.IsZero() {
			dst = append(dst, float64(t.Sub(prev))/float64(time.Microsecond))
		}
		prev = t
	}
	return dst
}
