// Package hlc implements hybrid logical clocks (Kulkarni et al.,
// "Logical Physical Clocks and Consistent Snapshots in Globally
// Distributed Databases"): timestamps that track physical wall time
// closely enough to bound staleness in real units, while preserving
// the happens-before ordering of logical clocks even when the wall
// clocks of the machines involved disagree.
//
// A timestamp packs a 48-bit wall component (milliseconds since the
// Unix epoch) and a 16-bit logical counter into one uint64, so
// integer comparison is HLC ordering and a reading serves as it is
// for the version of a persistent-store write (pstore.Client): above
// the path's last version without asking, unless a faster clock wrote
// it. The logical counter disambiguates events inside the same
// millisecond.
//
// Only the writing clients keep a Clock (pstore.Client); replicas keep
// none and store the version they are sent. The wall source is injectable so tests can run a client's clock
// ahead of or behind the others; Update clamps remote wall components
// to the local physical clock plus MaxOffset, so one replica reporting
// a version far in the future cannot drag the client's clock after it
// (it burns logical counter instead, and the clamp is counted for
// telemetry).
package hlc

import (
	"fmt"
	"sync"
	"time"

	"ace/internal/telemetry"
)

// Timestamp is a packed hybrid-logical-clock reading:
//
//	bits 63..16  wall clock, milliseconds since the Unix epoch
//	bits 15..0   logical counter within the millisecond
//
// The zero Timestamp means "unstamped" and sorts before every real
// reading; real readings are never zero because Clock floors its wall
// component at 1ms. Integer comparison of two Timestamps is exactly
// HLC ordering.
type Timestamp uint64

const (
	logicalBits = 16
	logicalMask = (1 << logicalBits) - 1
	maxWallMS   = (1 << 48) - 1
)

// Make assembles a Timestamp from a wall reading in milliseconds and
// a logical counter.
func Make(wallMS int64, logical uint16) Timestamp {
	if wallMS < 0 {
		wallMS = 0
	}
	if wallMS > maxWallMS {
		wallMS = maxWallMS
	}
	return Timestamp(uint64(wallMS)<<logicalBits | uint64(logical))
}

// WallMS returns the wall component in milliseconds since the epoch.
func (t Timestamp) WallMS() int64 { return int64(t >> logicalBits) }

// Logical returns the logical counter component.
func (t Timestamp) Logical() uint16 { return uint16(t & logicalMask) }

// IsZero reports whether t is the unstamped sentinel.
func (t Timestamp) IsZero() bool { return t == 0 }

// Time returns the wall component as a time.Time (UTC, millisecond
// resolution). For display and debugging; ordering decisions should
// compare Timestamps directly.
func (t Timestamp) Time() time.Time {
	return time.UnixMilli(t.WallMS()).UTC()
}

func (t Timestamp) String() string {
	if t.IsZero() {
		return "hlc:0"
	}
	return fmt.Sprintf("hlc:%d.%d", t.WallMS(), t.Logical())
}

// Metric names recorded by hybrid-logical clocks. Every Clock created
// with a non-nil registry registers them there; pstore clients pass
// their pool registry.
const (
	// MetricSkewClamps counts Update calls whose remote wall component
	// ran more than MaxOffset ahead of the local physical clock and
	// was clamped. A steady tick means some writer's clock is skewed
	// beyond the configured tolerance.
	MetricSkewClamps = "pstore.hlc.skew_clamps"
	// MetricOverflows counts logical-counter overflows: 65536 events
	// inside one clamped millisecond forced the wall component forward
	// 1ms. Rare in healthy clusters; sustained ticking means the
	// physical clock is stuck or far behind its peers.
	MetricOverflows = "pstore.hlc.logical_overflows"
)

// DefaultMaxOffset is the skew tolerance used when a Clock is built
// with a zero MaxOffset: remote timestamps may run at most this far
// ahead of the local physical clock before being clamped.
const DefaultMaxOffset = 500 * time.Millisecond

// Clock is a hybrid logical clock. All methods are safe for
// concurrent use.
type Clock struct {
	wall      func() time.Time
	maxOffset time.Duration

	mu   sync.Mutex
	last Timestamp

	skewClamps *telemetry.Counter
	overflows  *telemetry.Counter
}

// New builds a Clock. wall is the physical-clock source (nil means
// time.Now; tests inject skewed sources here). maxOffset
// is the skew tolerance for Update (zero means DefaultMaxOffset).
// reg, when non-nil, receives the pstore.hlc.* counters.
func New(wall func() time.Time, maxOffset time.Duration, reg *telemetry.Registry) *Clock {
	if wall == nil {
		wall = time.Now
	}
	if maxOffset <= 0 {
		maxOffset = DefaultMaxOffset
	}
	c := &Clock{wall: wall, maxOffset: maxOffset}
	if reg != nil {
		c.skewClamps = reg.Counter(MetricSkewClamps)
		c.overflows = reg.Counter(MetricOverflows)
	}
	return c
}

// physMS reads the physical clock in milliseconds, floored at 1 so a
// real reading is never the zero Timestamp even with a test wall
// source pinned at the epoch.
func (c *Clock) physMS() int64 {
	ms := c.wall().UnixMilli()
	if ms < 1 {
		ms = 1
	}
	if ms > maxWallMS {
		ms = maxWallMS
	}
	return ms
}

// Now returns the next local timestamp: the physical clock when it
// has advanced past the last reading, otherwise the last reading with
// the logical counter ticked.
func (c *Clock) Now() Timestamp {
	pt := c.physMS()
	c.mu.Lock()
	defer c.mu.Unlock()
	if pt > c.last.WallMS() {
		c.last = Make(pt, 0)
		return c.last
	}
	c.tickLocked()
	return c.last
}

// Update merges a remote timestamp into the clock (the receive rule)
// and returns the resulting local timestamp, which is strictly
// greater than both the previous local reading and the remote one.
// Remote wall components more than MaxOffset ahead of the local
// physical clock are clamped to pt+MaxOffset — the clamp is what
// keeps one skewed writer from dragging every later stamp forward.
func (c *Clock) Update(remote Timestamp) Timestamp {
	pt := c.physMS()
	rw := remote.WallMS()
	limit := pt + int64(c.maxOffset/time.Millisecond)
	if rw > limit {
		// Clamped: the merged value no longer exceeds the remote
		// reading (that guarantee is surrendered deliberately — it is
		// the remote clock that is broken), but local time can advance
		// at most MaxOffset past the physical clock.
		rw = limit
		remote = Make(rw, remote.Logical())
		if c.skewClamps != nil {
			c.skewClamps.Add(1)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case pt > c.last.WallMS() && pt > rw:
		c.last = Make(pt, 0)
	case remote > c.last:
		c.last = remote
		c.tickLocked()
	default:
		c.tickLocked()
	}
	return c.last
}

// tickLocked increments the logical counter of c.last, rolling the
// wall component forward 1ms when the counter overflows.
func (c *Clock) tickLocked() {
	if c.last.Logical() == logicalMask {
		c.last = Make(c.last.WallMS()+1, 0)
		if c.overflows != nil {
			c.overflows.Add(1)
		}
		return
	}
	c.last++
}
