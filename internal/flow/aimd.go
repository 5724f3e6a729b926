package flow

import (
	"sync"
	"time"
)

// AIMDLimiter is an adaptive concurrency limit driven by observed
// request latency, in the spirit of TCP congestion control and the
// gradient/Vegas concurrency limiters: while completions come back
// under the target latency the limit creeps up additively (~one slot
// per limit-many completions, i.e. one per "round trip"); a
// completion over the target cuts it multiplicatively, at most once
// per target interval so a single congested burst costs one backoff,
// not one per in-flight request. The limit therefore oscillates
// around the daemon's real capacity instead of being a hand-tuned
// constant.
type AIMDLimiter struct {
	cfg Config // defaulted; the limiter reads the limit, target and factor fields

	mu           sync.Mutex
	limit        float64
	lastDecrease time.Time
	decreases    int64
}

// NewAIMDLimiter builds a limiter from the limiter fields of cfg,
// which the caller has already run through withDefaults.
func NewAIMDLimiter(cfg Config) *AIMDLimiter {
	return &AIMDLimiter{cfg: cfg, limit: float64(cfg.InitialLimit)}
}

// Limit returns the current integer limit (never below Min).
func (l *AIMDLimiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// Decreases returns how many multiplicative backoffs have fired.
func (l *AIMDLimiter) Decreases() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decreases
}

// Observe feeds one completed request's latency at time now and
// returns the (possibly adjusted) limit.
func (l *AIMDLimiter) Observe(latency time.Duration, now time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if latency > l.cfg.TargetLatency {
		if now.Sub(l.lastDecrease) >= l.cfg.TargetLatency {
			l.limit *= l.cfg.DecreaseFactor
			if l.limit < float64(l.cfg.MinLimit) {
				l.limit = float64(l.cfg.MinLimit)
			}
			l.lastDecrease = now
			l.decreases++
		}
	} else {
		l.limit += 1 / l.limit
		if l.limit > float64(l.cfg.MaxLimit) {
			l.limit = float64(l.cfg.MaxLimit)
		}
	}
	return int(l.limit)
}
