package flow

import "time"

// The adaptive limiter's fixed tuning: the admit-to-completion latency
// it steers toward, and the multiplicative backoff applied (at most
// once per targetLatency) when a completion comes back slower.
const (
	targetLatency  = 50 * time.Millisecond
	decreaseFactor = 0.75
)

// aimd is an adaptive concurrency limit driven by observed request
// latency, in the spirit of TCP congestion control and the
// gradient/Vegas concurrency limiters: while completions come back
// under the target latency the limit creeps up additively (~one slot
// per limit-many completions, i.e. one per "round trip"); a
// completion over the target cuts it multiplicatively, at most once
// per target interval so a single congested burst costs one backoff,
// not one per in-flight request. The limit therefore oscillates
// around the daemon's real capacity instead of being a hand-tuned
// constant. A Config with MinLimit = MaxLimit pins it. The Controller
// mutex guards it.
type aimd struct {
	limit, min, max float64
	lastDecrease    time.Time
}

// current returns the integer limit (never below min).
func (l *aimd) current() int { return int(l.limit) }

// observe feeds one completed request's latency at time now.
func (l *aimd) observe(latency time.Duration, now time.Time) {
	if latency <= targetLatency {
		l.limit = min(l.limit+1/l.limit, l.max)
	} else if now.Sub(l.lastDecrease) >= targetLatency {
		l.limit = max(l.limit*decreaseFactor, l.min)
		l.lastDecrease = now
	}
}
