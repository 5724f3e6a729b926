package wire

import (
	"time"

	"ace/internal/telemetry"
)

// Metric names recorded by the wire layer. One Metrics group is
// typically shared by a daemon's server-side connections and every
// client its pool dials, so the counters describe the daemon's whole
// wire footprint.
const (
	MetricFramesSent   = "wire.frames.sent"
	MetricFramesRecv   = "wire.frames.recv"
	MetricBytesSent    = "wire.bytes.sent"
	MetricBytesRecv    = "wire.bytes.recv"
	MetricCallLatency  = "wire.call.latency"
	MetricCallTimeouts = "wire.call.timeouts"
)

// Metrics is the wire layer's instrument group. A nil *Metrics (the
// result of NewMetrics over a nil registry) discards all recordings,
// so instrumentation sites never need a guard of their own.
type Metrics struct {
	framesSent  *telemetry.Counter
	framesRecv  *telemetry.Counter
	bytesSent   *telemetry.Counter
	bytesRecv   *telemetry.Counter
	timeouts    *telemetry.Counter
	callLatency *telemetry.Histogram
}

// NewMetrics creates (or finds) the wire instruments in r. A nil
// registry yields a nil, no-op Metrics.
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		framesSent:  r.Counter(MetricFramesSent),
		framesRecv:  r.Counter(MetricFramesRecv),
		bytesSent:   r.Counter(MetricBytesSent),
		bytesRecv:   r.Counter(MetricBytesRecv),
		timeouts:    r.Counter(MetricCallTimeouts),
		callLatency: r.Histogram(MetricCallLatency),
	}
}

// FrameSent records one outgoing frame of n payload bytes.
func (m *Metrics) FrameSent(n int) {
	if m == nil {
		return
	}
	m.framesSent.Inc()
	m.bytesSent.Add(int64(n))
}

// FrameRecv records one incoming frame of n payload bytes.
func (m *Metrics) FrameRecv(n int) {
	if m == nil {
		return
	}
	m.framesRecv.Inc()
	m.bytesRecv.Add(int64(n))
}

// CallDone records one completed request/response exchange.
func (m *Metrics) CallDone(d time.Duration) {
	if m == nil {
		return
	}
	m.callLatency.Observe(d)
}

// CallTimeout records a call abandoned on a deadline.
func (m *Metrics) CallTimeout() {
	if m == nil {
		return
	}
	m.timeouts.Inc()
}
