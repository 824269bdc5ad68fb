package cluster

import (
	"sync"
	"time"
)

// Breaker states, also the values of the skycube_cluster_breaker_state gauge.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-replica circuit breaker: after threshold consecutive
// failures it opens and the replica is skipped outright — no connection
// attempts, no timeout waits — until cooldown elapses, at which point a
// single half-open probe is admitted. A probe success closes the breaker; a
// probe failure re-opens it for another cooldown. This keeps a dead replica
// from adding a full timeout to every scatter-gather fan-out.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	onState   func(state int)  // metrics hook, may be nil

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	probing  bool
}

func newBreaker(threshold int, cooldown time.Duration, onState func(int)) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, onState: onState}
}

func (b *breaker) setState(s int) {
	b.state = s
	if b.onState != nil {
		b.onState(s)
	}
}

// Allow reports whether a request may be sent to the replica right now.
// When the cooldown of an open breaker has elapsed it admits exactly one
// half-open probe; concurrent callers keep being refused until that probe
// resolves. Every admitted request must end in Success or Failure — the
// client runs each attempt to a verdict — or a probe would never resolve.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful request.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != breakerClosed {
		b.setState(breakerClosed)
	}
}

// Failure records a failed request, opening the breaker at the threshold
// (immediately for a failed half-open probe).
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.setState(breakerOpen)
		b.openedAt = b.now()
		b.failures = 0
	}
}

// State returns the current state without side effects.
func (b *breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
