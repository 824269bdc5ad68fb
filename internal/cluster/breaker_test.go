package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a breaker's injectable now().
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(threshold, cooldown, nil)
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("breaker refused while closed (failure %d)", i)
		}
		b.Failure()
	}
	if b.State() != breakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.Failure()
	if b.State() != breakerOpen {
		t.Fatal("breaker did not open at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker(2, time.Second)
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != breakerClosed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.State() != breakerOpen {
		t.Fatal("threshold-1 breaker did not open on first failure")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted a request before the cooldown elapsed")
	}
	clk.advance(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state = %d, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Success()
	if b.State() != breakerClosed || !b.Allow() {
		t.Fatal("probe success did not close the breaker")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted")
	}
	b.Failure()
	if b.State() != breakerOpen {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request without a fresh cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("re-opened breaker never re-admitted a probe")
	}
}

func TestBreakerStateCallback(t *testing.T) {
	var states []int
	b := newBreaker(1, time.Second, func(s int) { states = append(states, s) })
	clk := &fakeClock{t: time.Unix(0, 0)}
	b.now = clk.now
	b.Failure()
	clk.advance(time.Second)
	b.Allow()
	b.Success()
	want := []int{breakerOpen, breakerHalfOpen, breakerClosed}
	if len(states) != len(want) {
		t.Fatalf("state transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state transitions = %v, want %v", states, want)
		}
	}
}
