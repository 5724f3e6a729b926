package staleness

import (
	"sync"
	"time"
)

// The controller's shape.
const (
	// minShare floors the share: the controller never stops probing
	// entirely, or it could not discover recovery.
	minShare = 1.0 / 64
	// increase is the additive step per successful bounded read —
	// the "about one step per round of successes" shape of
	// internal/flow's AIMD limiter.
	increase = 1.0 / 32
	// violationFactor is the multiplicative cut when a lease holder
	// answered below its quorum-proven version: the replica lost
	// state, so back off hard.
	violationFactor = 0.25
	// redirectFactor is the multiplicative cut when a bounded read hit
	// a placement redirect or transport failure.
	redirectFactor = 0.5
	// cooldown spaces multiplicative cuts: one bad burst costs one
	// backoff, not one per in-flight read.
	cooldown = 100 * time.Millisecond
)

// Controller is the AIMD widen-back-to-quorum valve for bounded
// reads: it maintains a share in [minShare,1] of eligible reads that
// may actually leave the quorum path. While bounded reads keep proving
// their bounds the share creeps up additively; a staleness violation
// or a spike of redirects cuts it multiplicatively, so a sick replica
// (or a rebalancing cluster) sends traffic back to the quorum path
// long before it can do damage. Admission is a
// deterministic token accumulator — share 0.25 admits exactly every
// fourth eligible read — so chaos tests reproduce run-to-run.
type Controller struct {
	now func() time.Time

	mu         sync.Mutex
	share      float64
	acc        float64
	lastCut    time.Time
	violations int64
	cuts       int64
}

// NewController builds a Controller at full share (start trusting,
// narrow on evidence). now is the time source for cooldown spacing
// (nil = time.Now).
func NewController(now func() time.Time) *Controller {
	if now == nil {
		now = time.Now
	}
	return &Controller{now: now, share: 1}
}

// Allow reports whether the next eligible read may go bounded.
func (c *Controller) Allow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acc += c.share
	if c.acc >= 1 {
		c.acc--
		return true
	}
	return false
}

// Success records a bounded read whose bound held: additive increase.
func (c *Controller) Success() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.share += increase
	if c.share > 1 {
		c.share = 1
	}
}

// Violation records a lease holder contradicting its quorum-proven
// version: hard multiplicative cut.
func (c *Controller) Violation() {
	c.cut(violationFactor, true)
}

// Redirect records a placement redirect or transport failure on the
// bounded path: multiplicative cut (softer than a violation).
func (c *Controller) Redirect() {
	c.cut(redirectFactor, false)
}

func (c *Controller) cut(factor float64, violation bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if violation {
		c.violations++
	}
	if now.Sub(c.lastCut) < cooldown {
		return
	}
	c.share *= factor
	if c.share < minShare {
		c.share = minShare
	}
	c.lastCut = now
	c.cuts++
}

// Share returns the current bounded-read share.
func (c *Controller) Share() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.share
}

// Counters returns lifetime violation and multiplicative-cut counts.
func (c *Controller) Counters() (violations, cuts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations, c.cuts
}
