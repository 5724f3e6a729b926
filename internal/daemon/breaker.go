package daemon

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (wrapped, with the address) when a call
// is refused because the per-address circuit breaker is open: the
// peer has failed consecutively and the cooldown has not yet elapsed.
// Failing fast here is the point — a dead pstore replica or ASD costs
// the caller microseconds instead of a full dial timeout per call.
var ErrCircuitOpen = errors.New("daemon: circuit breaker open")

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-address circuit breaker: closed → open after
// `threshold` consecutive transport failures → half-open after
// `cooldown`, admitting a single probe → closed on probe success,
// back to open on probe failure. Remote errors (the daemon answered)
// never trip it; only transport-level trouble does.
//
// A threshold of zero or less disables the breaker: it never opens.
//
// onChange, when set, observes every state transition (telemetry,
// tests). It fires exactly once per transition, after the breaker's
// lock is released, so observers may freely query pool state.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	failures  int
	openedAt  time.Time
	probing   bool
	threshold int
	cooldown  time.Duration

	onChange func(from, to breakerState)
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// setLocked moves the breaker to `to` and returns the transition to
// report after unlock (from == to means no transition happened).
func (b *breaker) setLocked(to breakerState) (from, unused breakerState) {
	from = b.state
	b.state = to
	return from, to
}

// fire invokes the observer for a real transition.
func (b *breaker) fire(from, to breakerState) {
	if from != to && b.onChange != nil {
		b.onChange(from, to)
	}
}

// allow reports whether a call may proceed right now. In half-open
// state only one probe is admitted at a time.
func (b *breaker) allow() error {
	b.mu.Lock()
	switch b.state {
	case breakerClosed:
		b.mu.Unlock()
		return nil
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			return ErrCircuitOpen
		}
		from, to := b.setLocked(breakerHalfOpen)
		b.probing = true
		b.mu.Unlock()
		b.fire(from, to)
		return nil
	default: // half-open
		if b.probing {
			b.mu.Unlock()
			return ErrCircuitOpen
		}
		b.probing = true
		b.mu.Unlock()
		return nil
	}
}

// success records a completed exchange and closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	from, to := b.setLocked(breakerClosed)
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
	b.fire(from, to)
}

// abandon releases a probe slot without judging the peer: the caller
// cancelled the call before it resolved (e.g. a quorum fast-path
// dropping a straggler), which says nothing about the peer's health.
// Without this, a cancelled half-open probe would leave `probing` set
// and wedge the breaker open for every future caller.
func (b *breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// failure records a transport failure, opening the breaker when the
// consecutive-failure threshold is reached (or immediately when a
// half-open probe fails).
func (b *breaker) failure() {
	b.mu.Lock()
	from, to := b.state, b.state
	switch b.state {
	case breakerHalfOpen:
		from, to = b.setLocked(breakerOpen)
		b.openedAt = time.Now()
		b.probing = false
	case breakerClosed:
		b.failures++
		if b.threshold > 0 && b.failures >= b.threshold {
			from, to = b.setLocked(breakerOpen)
			b.openedAt = time.Now()
		}
	case breakerOpen:
		// Already open; a straggling in-flight failure keeps it open.
		b.openedAt = time.Now()
	}
	b.mu.Unlock()
	b.fire(from, to)
}

// currentState snapshots the state (for stats and tests).
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
