// Package flow is the admission-control and overload-protection
// subsystem of the ACE reproduction. Every daemon accepts commands
// through a flow Controller, which decides — before any work is done
// — whether a request is executed now, waits briefly in a bounded
// queue, or is shed with a retryable "busy" push-back.
//
// The paper's room-scale substrate accepts unboundedly; at the
// ROADMAP's millions-of-users scale that turns overload into
// collapse (unbounded goroutines, unbounded queues, lease renewals
// starved behind lookup storms). The Controller converts overload
// into graceful degradation with one mechanism per concern:
//
//   - throughput: an adaptive concurrency limit that probes for
//     capacity additively while latency is below a target and backs
//     off multiplicatively when it is above — in the spirit of
//     TCP-Vegas/gradient concurrency limiters;
//   - waiting: a bounded admission queue with per-request deadlines
//     and a LIFO-on-overload policy: when the queue is saturated the
//     oldest waiter (the one that has already burned most of its
//     deadline) is shed and fresh work is served newest-first, so
//     the daemon spends its capacity on requests whose callers are
//     still listening;
//   - priority: control-plane verbs (register/renew/heartbeat, pstore
//     sync) admit into reserved headroom above the data-plane limit
//     and bypass fair share, so leases survive overload;
//   - fairness: once the daemon is half full and another principal
//     holds or awaits a data-plane slot, a principal at its share of
//     the limit is shed instead of taking or queueing for another.
//
// Shed requests carry a retry-after hint; the daemon shell converts
// a rejection into the cmdlang "busy" reply and daemon.Pool retries
// it with backoff, so the environment degrades end-to-end instead of
// hanging or dropping connections.
package flow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ace/internal/telemetry"
)

// Priority classifies a request for admission. Control-plane traffic
// keeps the environment alive (lease renewals, heartbeats, replica
// sync) and is admitted into reserved headroom that data-plane
// commands can never occupy.
type Priority int

const (
	// Control is the infrastructure class: register/renew/heartbeat,
	// pstore anti-entropy, introspection.
	Control Priority = iota
	// Data is every ordinary service command.
	Data
)

// String names the priority ("control" / "data"), used as the metric
// suffix.
func (p Priority) String() string {
	if p == Control {
		return "control"
	}
	return "data"
}

// ErrClosed is returned by Admit after the controller shut down.
var ErrClosed = errors.New("flow: controller closed")

// Rejection reasons carried by RejectedError.
const (
	ReasonFairShare    = "fair_share"    // principal over its share
	ReasonQueueFull    = "queue_full"    // shed under the LIFO-on-overload policy
	ReasonQueueTimeout = "queue_timeout" // deadline expired while queued
)

// RejectedError is an admission refusal: the request was never
// executed and the caller should retry after RetryAfter.
type RejectedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("flow: admission rejected (%s), retry after %v", e.Reason, e.RetryAfter)
}

// IsRejected reports whether err is an admission rejection and
// returns it.
func IsRejected(err error) (*RejectedError, bool) {
	var re *RejectedError
	ok := errors.As(err, &re)
	return re, ok
}

// Config tunes a Controller. The zero value takes every default; all
// defaults are deliberately generous so an idle or lightly loaded
// daemon never notices the controller.
type Config struct {
	// InitialLimit seeds the adaptive concurrency limit.
	// Default 64.
	InitialLimit int
	// MinLimit / MaxLimit bound the adaptive limit. Defaults 8 / 1024.
	// InitialLimit = MinLimit = MaxLimit pins the limit.
	MinLimit int
	MaxLimit int
	// QueueLen bounds the admission queue per priority. Default 128.
	QueueLen int
	// MaxQueueWait is the per-request queueing deadline. Default
	// 100ms.
	MaxQueueWait time.Duration
	// MaxConns caps concurrently admitted connections at the accept
	// loop. Default 4096.
	MaxConns int
}

func (c Config) withDefaults() Config {
	orDefault(&c.InitialLimit, 64)
	orDefault(&c.MinLimit, 8)
	orDefault(&c.MaxLimit, 1024)
	c.MinLimit = min(c.MinLimit, c.MaxLimit)
	c.InitialLimit = min(max(c.InitialLimit, c.MinLimit), c.MaxLimit)
	orDefault(&c.QueueLen, 128)
	orDefault(&c.MaxQueueWait, 100*time.Millisecond)
	orDefault(&c.MaxConns, 4096)
	return c
}

// orDefault replaces a non-positive setting with its default.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// controlReserve is the fraction of the data-plane limit added on top
// of it as headroom only control traffic may occupy.
const controlReserve = 0.25

// Metric names recorded by a Controller.
const (
	MetricAdmittedControl  = "flow.admitted.control"
	MetricAdmittedData     = "flow.admitted.data"
	MetricShedControl      = "flow.shed.control"
	MetricShedData         = "flow.shed.data"
	MetricQueueWaitControl = "flow.queue_wait.control"
	MetricQueueWaitData    = "flow.queue_wait.data"
	MetricLimit            = "flow.limit"
	MetricInflight         = "flow.inflight"
	MetricQueueDepth       = "flow.queue.depth"
	MetricConnsShed        = "flow.conns.shed"
)

// Controller is one daemon's admission gate.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	lim      aimd
	inflight int
	// controlInflight is the part of inflight that is control traffic.
	controlInflight int
	perPrincipal    map[string]load // data-plane slots held and awaited
	controlQ        waitQueue
	dataQ           waitQueue
	conns           int
	closed          bool

	mAdmitted  [2]*telemetry.Counter
	mShed      [2]*telemetry.Counter
	mQueueWait [2]*telemetry.Histogram
	mLimit     *telemetry.Gauge
	mInflight  *telemetry.Gauge
	mQueueLen  *telemetry.Gauge
	mConnsShed *telemetry.Counter
}

// NewController builds a controller from cfg, recording into reg
// (nil: a private registry). Snapshot's lifetime counts are read back
// from reg.
func NewController(cfg Config, reg *telemetry.Registry) *Controller {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Controller{
		cfg:          cfg,
		lim:          aimd{limit: float64(cfg.InitialLimit), min: float64(cfg.MinLimit), max: float64(cfg.MaxLimit)},
		perPrincipal: make(map[string]load),
		mAdmitted:    [2]*telemetry.Counter{reg.Counter(MetricAdmittedControl), reg.Counter(MetricAdmittedData)},
		mShed:        [2]*telemetry.Counter{reg.Counter(MetricShedControl), reg.Counter(MetricShedData)},
		mQueueWait:   [2]*telemetry.Histogram{reg.Histogram(MetricQueueWaitControl), reg.Histogram(MetricQueueWaitData)},
		mLimit:       reg.Gauge(MetricLimit),
		mInflight:    reg.Gauge(MetricInflight),
		mQueueLen:    reg.Gauge(MetricQueueDepth),
		mConnsShed:   reg.Counter(MetricConnsShed),
	}
	c.mLimit.Set(int64(c.lim.current()))
	return c
}

// Ticket is one admitted request, held by value: an admission
// allocates nothing. Done must be called exactly when the work
// completes; the admit-to-Done latency drives the adaptive limit.
// Done on the zero Ticket is a no-op, so work that never went through
// Admit can call it unconditionally.
type Ticket struct {
	c         *Controller
	pri       Priority
	principal string
	start     time.Time
}

// Done releases the ticket's concurrency slot and feeds the observed
// latency to the adaptive limiter. A second call does nothing; calls
// from two goroutines at once race.
func (t *Ticket) Done() {
	if t.c == nil {
		return
	}
	t.c.release(t)
	t.c = nil
}

// Admit asks for one slot. It returns immediately when capacity is
// free, waits in the bounded admission queue (up to MaxQueueWait,
// the ctx deadline, whichever is sooner) when the daemon is at its
// limit, and fails with *RejectedError when the request is shed or
// ErrClosed after shutdown.
func (c *Controller) Admit(ctx context.Context, pri Priority, principal string) (Ticket, error) {
	now := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	var room bool
	if pri == Control {
		room = c.controlRoomLocked()
	} else if c.fairShareExceededLocked(principal) {
		err := c.shedLocked(pri, ReasonFairShare)
		c.mu.Unlock()
		return Ticket{}, err
	} else {
		room = c.inflight < c.lim.current()
	}
	if room {
		t := c.admitLocked(pri, principal, now, now)
		c.mu.Unlock()
		return t, nil
	}

	// At capacity: join the bounded queue.
	deadline := now.Add(c.cfg.MaxQueueWait)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	w := &waiter{
		ready:     make(chan struct{}),
		pri:       pri,
		principal: principal,
		enq:       now,
		deadline:  deadline,
	}
	q := &c.dataQ
	if pri == Control {
		q = &c.controlQ
	}
	var dropped *waiter
	if q.len() >= c.cfg.QueueLen {
		// LIFO-on-overload drop policy: shed the oldest waiter — it
		// has burned the most of its deadline and its caller is the
		// least likely to still be listening — and keep the newcomer.
		dropped = q.popOldest()
		c.rejectLocked(dropped, ReasonQueueFull)
	}
	q.push(w)
	if pri == Data {
		c.bookLocked(principal, 0, 1)
	}
	c.mQueueLen.Set(int64(c.controlQ.len() + c.dataQ.len()))
	c.mu.Unlock()
	if dropped != nil {
		close(dropped.ready)
	}

	timer := time.NewTimer(deadline.Sub(now))
	defer timer.Stop()
	select {
	case <-w.ready:
	case <-ctx.Done():
	case <-timer.C:
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	switch w.state {
	case waiterAdmitted:
		// Admission may have raced the timer; the slot is already
		// held, so take it regardless of which select arm fired.
		c.mQueueWait[pri].Observe(time.Now().Sub(w.enq))
		return Ticket{c: c, pri: pri, principal: principal, start: w.enq}, nil
	case waiterClosed:
		return Ticket{}, ErrClosed
	case waiterQueued:
		// Timed out (or ctx cancelled) while still queued.
		q.remove(w)
		c.rejectLocked(w, ReasonQueueTimeout)
		c.mQueueLen.Set(int64(c.controlQ.len() + c.dataQ.len()))
	}
	return Ticket{}, w.reject
}

// admitLocked hands out a slot. start is the admission request time
// (queue wait baseline); the queue-wait histogram records now-start.
func (c *Controller) admitLocked(pri Priority, principal string, start, now time.Time) Ticket {
	c.takeSlotLocked(pri, principal, 0)
	c.mInflight.Set(int64(c.inflight))
	c.mQueueWait[pri].Observe(now.Sub(start))
	return Ticket{c: c, pri: pri, principal: principal, start: start}
}

// takeSlotLocked books one admission, immediate (dequeued 0) or from
// the queue (dequeued 1). Only data-plane slots count toward a
// principal's fair share.
func (c *Controller) takeSlotLocked(pri Priority, principal string, dequeued int) {
	c.inflight++
	if pri == Data {
		c.bookLocked(principal, 1, -dequeued)
	} else {
		c.controlInflight++
	}
	c.mAdmitted[pri].Inc()
}

// load is one principal's data-plane demand: slots held and waiters
// queued.
type load struct{ held, queued int }

// bookLocked adjusts principal's data-plane load, forgetting a
// principal that neither holds nor awaits a slot.
func (c *Controller) bookLocked(principal string, held, queued int) {
	l := c.perPrincipal[principal]
	l.held += held
	l.queued += queued
	if l == (load{}) {
		delete(c.perPrincipal, principal)
	} else {
		c.perPrincipal[principal] = l
	}
}

// rejectLocked sheds a waiter that leaves the queue without a slot.
func (c *Controller) rejectLocked(w *waiter, reason string) {
	w.state = waiterRejected
	w.reject = c.shedLocked(w.pri, reason)
	if w.pri == Data {
		c.bookLocked(w.principal, 0, -1)
	}
}

// shedLocked counts a rejection and builds its error. The retry hint
// is one target-latency interval — roughly the time a queue drain
// takes to become visible. A precise estimate is not worth the
// bookkeeping; the pool's jittered backoff spreads retries anyway.
func (c *Controller) shedLocked(pri Priority, reason string) *RejectedError {
	c.mShed[pri].Inc()
	return &RejectedError{Reason: reason, RetryAfter: targetLatency}
}

// hardCapLocked is the control-plane ceiling: the data-plane limit
// plus the control reserve.
func (c *Controller) hardCapLocked() int {
	return c.lim.current() + c.reserveLocked()
}

// reserveLocked is the headroom only control traffic may occupy.
func (c *Controller) reserveLocked() int {
	return max(1, int(float64(c.lim.current())*controlReserve))
}

// controlRoomLocked reports whether a control request may take a slot
// now: while everything in flight is under the hard cap, and, whatever
// data holds, while control in flight is under the reserve. Data
// admitted before a limit cut may hold the whole hard cap; the reserve
// stays control's all the same.
func (c *Controller) controlRoomLocked() bool {
	return c.inflight < c.hardCapLocked() || c.controlInflight < c.reserveLocked()
}

// fairShareExceededLocked enforces per-principal fairness once the
// daemon is at least half full: each principal holding or awaiting
// data-plane slots is entitled to an equal share of the limit (at
// least one slot), and one that holds its share is shed rather than
// queued. So a noisy client holding every slot cannot starve one
// waiting for its first: the noisy client's excess stops entering the
// queue ahead of it. A principal alone has nobody to starve: at the
// limit it queues like anyone else.
func (c *Controller) fairShareExceededLocked(principal string) bool {
	limit := c.lim.current()
	if c.inflight*2 < limit {
		return false
	}
	l, known := c.perPrincipal[principal]
	active := len(c.perPrincipal)
	if !known {
		active++ // this principal is about to become active
	}
	return active > 1 && l.held >= max(1, limit/active)
}

// release returns t's slot, feeds the adaptive limiter, and admits
// as many waiters as the new limit allows.
func (c *Controller) release(t *Ticket) {
	now := time.Now()
	c.mu.Lock()
	c.inflight--
	if t.pri == Data {
		c.bookLocked(t.principal, -1, 0)
	} else {
		c.controlInflight--
	}
	c.lim.observe(now.Sub(t.start), now)
	c.mLimit.Set(int64(c.lim.current()))
	wake := c.fillLocked(now)
	c.mInflight.Set(int64(c.inflight))
	c.mQueueLen.Set(int64(c.controlQ.len() + c.dataQ.len()))
	c.mu.Unlock()
	for _, w := range wake {
		close(w.ready)
	}
}

// fillLocked admits queued waiters into freed capacity: control
// first (into the hard cap), then data (into the adaptive limit).
// Under overload — the data queue at least half full — data waiters
// are served newest-first (LIFO), because the newest waiter has the
// most deadline left and the freshest caller; under light queueing
// FIFO preserves ordering. Expired waiters are shed on the way.
func (c *Controller) fillLocked(now time.Time) []*waiter {
	var wake []*waiter
	for c.controlQ.len() > 0 && c.controlRoomLocked() {
		wake = append(wake, c.fillOneLocked(c.controlQ.popOldest(), now))
	}
	for c.dataQ.len() > 0 && c.inflight < c.lim.current() {
		var w *waiter
		if c.dataQ.len()*2 >= c.cfg.QueueLen {
			w = c.dataQ.popNewest()
		} else {
			w = c.dataQ.popOldest()
		}
		wake = append(wake, c.fillOneLocked(w, now))
	}
	return wake
}

// fillOneLocked admits or expires one popped waiter.
func (c *Controller) fillOneLocked(w *waiter, now time.Time) *waiter {
	if now.After(w.deadline) {
		c.rejectLocked(w, ReasonQueueTimeout)
		return w
	}
	w.state = waiterAdmitted
	c.takeSlotLocked(w.pri, w.principal, 1)
	return w
}

// AdmitConn gates the accept loop: it reports whether a new
// connection may be served, counting a shed when not.
func (c *Controller) AdmitConn() bool {
	c.mu.Lock()
	if c.closed || c.conns >= c.cfg.MaxConns {
		c.mConnsShed.Inc()
		c.mu.Unlock()
		return false
	}
	c.conns++
	c.mu.Unlock()
	return true
}

// ReleaseConn returns a connection slot taken by AdmitConn.
func (c *Controller) ReleaseConn() {
	c.mu.Lock()
	if c.conns > 0 {
		c.conns--
	}
	c.mu.Unlock()
}

// Close rejects every queued waiter with ErrClosed and makes all
// future Admits fail. Held tickets may still call Done.
func (c *Controller) Close() {
	c.mu.Lock()
	c.closed = true // the queues of a closed controller are empty already
	var wake []*waiter
	for _, q := range []*waitQueue{&c.controlQ, &c.dataQ} {
		for q.len() > 0 {
			w := q.popOldest()
			w.state = waiterClosed
			if w.pri == Data {
				c.bookLocked(w.principal, 0, -1)
			}
			wake = append(wake, w)
		}
	}
	c.mQueueLen.Set(0)
	c.mu.Unlock()
	for _, w := range wake {
		close(w.ready)
	}
}

// Snapshot is a point-in-time view of the controller.
type Snapshot struct {
	// Limit is the current adaptive data-plane concurrency limit.
	Limit int
	// HardCap is the control-plane ceiling (limit + reserve).
	HardCap int
	// Inflight is the number of admitted, uncompleted requests.
	Inflight int
	// QueueDepth is the number of queued waiters (both priorities).
	QueueDepth int
	// Conns is the number of admitted connections.
	Conns int
	// Principals is the number of principals holding or awaiting
	// data-plane slots.
	Principals int
	// AdmittedControl/AdmittedData/ShedControl/ShedData/ConnsShed are
	// the lifetime flow.* counters of the controller's registry.
	AdmittedControl int64
	AdmittedData    int64
	ShedControl     int64
	ShedData        int64
	ConnsShed       int64
}

// Snapshot returns the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Limit:           c.lim.current(),
		HardCap:         c.hardCapLocked(),
		Inflight:        c.inflight,
		QueueDepth:      c.controlQ.len() + c.dataQ.len(),
		Conns:           c.conns,
		Principals:      len(c.perPrincipal),
		AdmittedControl: c.mAdmitted[Control].Value(),
		AdmittedData:    c.mAdmitted[Data].Value(),
		ShedControl:     c.mShed[Control].Value(),
		ShedData:        c.mShed[Data].Value(),
		ConnsShed:       c.mConnsShed.Value(),
	}
}
