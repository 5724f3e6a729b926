package daemon

import (
	"context"
	"sync"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// transitionLog collects breaker transitions delivered through the
// pool's OnBreakerChange hook.
type transitionLog struct {
	mu   sync.Mutex
	seen []string
}

func (l *transitionLog) record(addr, from, to string) {
	l.mu.Lock()
	l.seen = append(l.seen, from+">"+to)
	l.mu.Unlock()
}

func (l *transitionLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.seen...)
}

// TestBreakerOnStateChangeHalfOpenToClosed: the closing transition of
// a successful half-open probe fires the hook exactly once, and
// further successes do not re-fire it.
func TestBreakerOnStateChangeHalfOpenToClosed(t *testing.T) {
	var log transitionLog
	p := tightPool(PoolConfig{
		MaxRetries:       -1,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Millisecond,
		OnBreakerChange:  log.record,
		Telemetry:        telemetry.NewRegistry(),
	})
	defer p.Close()
	addr := deadAddr(t)

	for i := 0; i < 2; i++ {
		p.Call(addr, cmdlang.New(CmdPing)) //nolint:errcheck
	}

	// Resurrect the peer on the same address.
	d := New(Config{Name: "lazarus", Listen: addr})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := d.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not rebind address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(d.Stop)

	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// More successes after recovery: already closed, must not re-fire.
	for i := 0; i < 3; i++ {
		if _, err := p.Call(addr, cmdlang.New(CmdPing)); err != nil {
			t.Fatal(err)
		}
	}

	var closings int
	for _, tr := range log.snapshot() {
		if tr == "half-open>closed" {
			closings++
		}
	}
	if closings != 1 {
		t.Fatalf("half-open>closed fired %d times, want exactly 1: %v", closings, log.snapshot())
	}
	if got := p.Telemetry().Counter(MetricBreakerTransitions).Value(); got < 3 {
		// closed>open, open>half-open, half-open>closed at minimum.
		t.Fatalf("breaker transition counter = %d, want >= 3", got)
	}
}

// TestBreakerOnStateChangeHalfOpenToOpen: a failed half-open probe
// fires the reopening transition exactly once.
func TestBreakerOnStateChangeHalfOpenToOpen(t *testing.T) {
	var log transitionLog
	p := tightPool(PoolConfig{
		MaxRetries:       -1,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
		OnBreakerChange:  log.record,
	})
	defer p.Close()
	addr := deadAddr(t)

	p.Call(addr, cmdlang.New(CmdPing)) //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
	if _, err := p.Call(addr, cmdlang.New(CmdPing)); err == nil {
		t.Fatal("probe against dead peer succeeded")
	}

	var reopens int
	for _, tr := range log.snapshot() {
		if tr == "half-open>open" {
			reopens++
		}
	}
	if reopens != 1 {
		t.Fatalf("half-open>open fired %d times, want exactly 1: %v", reopens, log.snapshot())
	}
}

// TestTelemetryCommandMetrics: the built-in telemetry command exposes
// the daemon's registry over the wire, including per-verb dispatch
// histograms and the server-side wire counters.
func TestTelemetryCommandMetrics(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "metered"}, nil)
	c := dialTest(t, d)

	for i := 0; i < 4; i++ {
		if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
			t.Fatal(err)
		}
	}

	reply, err := c.Call(cmdlang.New(CmdTelemetry).SetWord("op", "metrics"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.DecodeSnapshot(reply)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := snap.Histogram(MetricDispatchPrefix + CmdPing)
	if !ok || h.Count < 4 {
		t.Fatalf("dispatch histogram for ping = %+v ok=%v, want >= 4 observations", h, ok)
	}
	// At snapshot time the telemetry command itself has been received
	// but its reply not yet sent: 5 frames in, 4 ping replies out.
	if snap.Counter(wire.MetricFramesRecv) < 5 {
		t.Fatalf("server frames recv = %d, want >= 5", snap.Counter(wire.MetricFramesRecv))
	}
	if snap.Counter(wire.MetricFramesSent) < 4 {
		t.Fatalf("server frames sent = %d, want >= 4", snap.Counter(wire.MetricFramesSent))
	}
	if snap.Gauge(MetricConnsActive) < 1 {
		t.Fatalf("active connections gauge = %d, want >= 1", snap.Gauge(MetricConnsActive))
	}
}

// TestTraceSpanRecordedAndServed: a traced call leaves a span in the
// daemon's buffer, retrievable through `telemetry op=trace`, with the
// IDs the wire header carried.
func TestTraceSpanRecordedAndServed(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "traced"}, nil)
	c := dialTest(t, d)

	root := telemetry.NewTrace()
	ctx := telemetry.WithSpanContext(context.Background(), root)
	if _, err := c.CallContext(ctx, cmdlang.New(CmdPing)); err != nil {
		t.Fatal(err)
	}

	reply, err := c.Call(cmdlang.New(CmdTelemetry).
		SetWord("op", "trace").
		SetString("id", telemetry.FormatID(root.TraceID)))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.DecodeSpans(reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.TraceID != root.TraceID {
		t.Fatalf("span trace id %x, want %x", s.TraceID, root.TraceID)
	}
	if s.Parent != root.SpanID {
		t.Fatalf("span parent %x, want origin span %x", s.Parent, root.SpanID)
	}
	if s.Name != CmdPing || s.Service != "traced" || !s.OK {
		t.Fatalf("span = %+v", s)
	}

	// The untraced metrics query above must not have added spans.
	if got := d.Traces().Len(); got != 1 {
		t.Fatalf("trace buffer holds %d spans, want 1", got)
	}
}
