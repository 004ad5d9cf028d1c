package service

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for deterministic breaker
// tests.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func testBreaker(th int, cd time.Duration) (*breaker, *fakeClock) {
	clk := newFakeClock()
	return newBreaker(BreakerConfig{Threshold: th, Cooldown: cd}, clk.now), clk
}

// admit records a fatal if Admit disagrees with want.
func admit(t *testing.T, b *breaker, want bool, msg string) {
	t.Helper()
	if got := b.Admit(); got != want {
		t.Fatalf("%s: Admit() = %v, want %v (state %v)", msg, got, want, b.snapshot().State)
	}
}

// TestBreakerTripHalfOpenClose pins the full happy-path state walk:
// closed → (threshold consecutive unhealthy) → open → (cooldown) →
// half-open probe → (healthy) → closed.
func TestBreakerTripHalfOpenClose(t *testing.T) {
	b, clk := testBreaker(3, time.Second)

	// Interleaved healthy outcomes reset the consecutive counter.
	for i := 0; i < 2; i++ {
		admit(t, b, true, "closed")
		b.Record(false)
	}
	admit(t, b, true, "closed after 2 unhealthy")
	b.Record(true) // reset
	if s := b.snapshot(); s.State != "closed" || s.Consecutive != 0 {
		t.Fatalf("after healthy reset: %+v", s)
	}

	// Three consecutive unhealthy outcomes trip it.
	for i := 0; i < 3; i++ {
		admit(t, b, true, "closed, accumulating")
		b.Record(false)
	}
	if s := b.snapshot(); s.State != "open" || s.Trips != 1 {
		t.Fatalf("after threshold: %+v", s)
	}
	admit(t, b, false, "open, pre-cooldown")

	// Cooldown elapses: exactly one probe is admitted.
	clk.advance(time.Second)
	admit(t, b, true, "half-open probe")
	admit(t, b, false, "second request during probe")
	if s := b.snapshot(); s.State != "half-open" || s.Probes != 1 {
		t.Fatalf("during probe: %+v", s)
	}

	// Healthy probe closes it.
	b.Record(true)
	if s := b.snapshot(); s.State != "closed" || s.Consecutive != 0 {
		t.Fatalf("after healthy probe: %+v", s)
	}
	admit(t, b, true, "closed again")
}

// TestBreakerReopenOnFailedProbe: an unhealthy half-open probe reopens the
// breaker for a full new cooldown.
func TestBreakerReopenOnFailedProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	admit(t, b, true, "closed")
	b.Record(false) // threshold 1: instant trip
	clk.advance(time.Second)
	admit(t, b, true, "probe")
	b.Record(false)
	if s := b.snapshot(); s.State != "open" || s.Trips != 2 {
		t.Fatalf("after failed probe: %+v", s)
	}
	admit(t, b, false, "reopened, pre-cooldown")
	clk.advance(999 * time.Millisecond)
	admit(t, b, false, "reopened, 1ms short of cooldown")
	clk.advance(time.Millisecond)
	admit(t, b, true, "second probe after full cooldown")
	b.Record(true)
	if s := b.snapshot(); s.State != "closed" {
		t.Fatalf("after second probe: %+v", s)
	}
}

// TestBreakerAbandonProbe: a probe slot whose request never reached the
// engine (shed, drain-rejected, queue-expired) is handed back without
// closing or reopening the breaker.
func TestBreakerAbandonProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.Admit()
	b.Record(false)
	clk.advance(time.Second)
	admit(t, b, true, "probe granted")
	b.abandonProbe()
	if s := b.snapshot(); s.State != "half-open" {
		t.Fatalf("abandon must not change state: %+v", s)
	}
	admit(t, b, true, "slot free again after abandon")
	b.Record(true)
	if s := b.snapshot(); s.State != "closed" {
		t.Fatalf("after real probe: %+v", s)
	}

	// abandonProbe in closed state is a no-op.
	b.abandonProbe()
	admit(t, b, true, "closed unaffected by abandon")
	b.Record(true)
}

// TestBreakerDisabled: a negative threshold turns the breaker into a pass-
// through that never trips.
func TestBreakerDisabled(t *testing.T) {
	b, _ := testBreaker(-1, time.Second)
	for i := 0; i < 50; i++ {
		admit(t, b, true, "disabled")
		b.Record(false)
	}
	if s := b.snapshot(); s.Trips != 0 {
		t.Fatalf("disabled breaker tripped: %+v", s)
	}
}

// TestBreakerDefaults: zero config resolves to the documented defaults.
func TestBreakerDefaults(t *testing.T) {
	cfg := BreakerConfig{}.withDefaults()
	if cfg.Threshold != DefaultBreakerThreshold || cfg.Cooldown != DefaultBreakerCooldown {
		t.Fatalf("withDefaults() = %+v", cfg)
	}
}
