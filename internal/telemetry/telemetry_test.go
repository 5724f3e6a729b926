package telemetry

import (
	"context"
	"testing"
	"time"

	"ace/internal/cmdlang"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(7)
	g.Add(1)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must discard updates")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot must be empty")
	}
	if h.Min() != 0 || len(h.Buckets()) != NumBuckets {
		t.Fatalf("nil histogram accessors must be safe")
	}
}

func TestInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("calls")
	c.Add(2)
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("calls") != c {
		t.Fatalf("same name must return same counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	h := r.Histogram("lat")
	h.Observe(30 * time.Microsecond)  // bucket 0 (<=50µs)
	h.Observe(700 * time.Microsecond) // bucket 4 (<=1ms)
	h.Observe(10 * time.Second)       // +Inf bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	b := h.Buckets()
	if b[0] != 1 || b[4] != 1 || b[NumBuckets-1] != 1 {
		t.Fatalf("unexpected bucket layout: %v", b)
	}
	if h.Sum() < 10*time.Second {
		t.Fatalf("sum = %v too small", h.Sum())
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %v, want 0 (first bucket occupied)", h.Min())
	}

	h2 := r.Histogram("lat2")
	h2.Observe(40 * time.Millisecond)
	if h2.Min() != 25*time.Millisecond {
		t.Fatalf("Min = %v, want 25ms lower bound", h2.Min())
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(9)
	r.Counter("a.count").Add(4)
	r.Gauge("depth").Set(3)
	r.Histogram("lat").Observe(2 * time.Millisecond)

	s := r.Snapshot()
	if s.Counters[0].Name != "a.count" {
		t.Fatalf("snapshot not sorted: %+v", s.Counters)
	}
	reply := EncodeSnapshot(s, cmdlang.OK())
	// Round-trip over the wire form, as the telemetry command does.
	parsed, err := cmdlang.Parse(reply.String())
	if err != nil {
		t.Fatalf("reply does not parse: %v", err)
	}
	got, err := DecodeSnapshot(parsed)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Counter("b.count") != 9 || got.Counter("a.count") != 4 {
		t.Fatalf("counters lost: %+v", got.Counters)
	}
	if got.Gauge("depth") != 3 {
		t.Fatalf("gauge lost: %+v", got.Gauges)
	}
	h, ok := got.Histogram("lat")
	if !ok || h.Count != 1 || h.Sum != 2*time.Millisecond || len(h.Buckets) != NumBuckets {
		t.Fatalf("histogram lost: %+v ok=%v", h, ok)
	}
}

func TestSpanContextAndIDs(t *testing.T) {
	root := NewTrace()
	if !root.Valid() || root.SpanID != 0 {
		t.Fatalf("root context malformed: %+v", root)
	}
	child := root.NewChild()
	if child.TraceID != root.TraceID || child.Parent != 0 || child.SpanID == 0 {
		t.Fatalf("child context malformed: %+v", child)
	}
	grand := child.NewChild()
	if grand.Parent != child.SpanID {
		t.Fatalf("grandchild parent = %x, want %x", grand.Parent, child.SpanID)
	}

	id, err := ParseID(FormatID(child.SpanID))
	if err != nil || id != child.SpanID {
		t.Fatalf("id round-trip: %v %x != %x", err, id, child.SpanID)
	}
	if _, err := ParseID("zzz"); err == nil {
		t.Fatalf("bad id must not parse")
	}

	ctx := WithSpanContext(context.Background(), child)
	if got := FromContext(ctx); got != child {
		t.Fatalf("context round-trip: %+v != %+v", got, child)
	}
	if got := FromContext(context.Background()); got.Valid() {
		t.Fatalf("empty context must yield invalid span context")
	}
	if WithSpanContext(context.Background(), SpanContext{}) != context.Background() {
		t.Fatalf("invalid span context must not be attached")
	}
}

func TestTraceBufferBoundsAndEviction(t *testing.T) {
	b := NewTraceBuffer()
	b.max = 4
	for trace := uint64(1); trace <= 3; trace++ {
		for i := 0; i < 2; i++ {
			b.Record(Span{TraceID: trace, SpanID: newID(), Name: "op"})
		}
	}
	// 6 spans recorded into a 4-span budget: trace 1 must be gone.
	if got := len(b.Trace(1)); got != 0 {
		t.Fatalf("oldest trace not evicted: %d spans remain", got)
	}
	if got := len(b.Trace(3)); got != 2 {
		t.Fatalf("newest trace truncated: %d spans", got)
	}
	if b.Len() > 4+1 { // may exceed budget only while the newest trace is protected
		t.Fatalf("buffer over budget: %d", b.Len())
	}
	if ids := b.TraceIDs(); len(ids) == 0 || ids[len(ids)-1] != 3 {
		t.Fatalf("trace order wrong: %v", ids)
	}

	var nilBuf *TraceBuffer
	nilBuf.Record(Span{TraceID: 1})
	if nilBuf.Len() != 0 || nilBuf.Trace(1) != nil || nilBuf.TraceIDs() != nil {
		t.Fatalf("nil buffer must be inert")
	}
}

func TestSpansEncodeDecode(t *testing.T) {
	start := time.Unix(0, 1700000000123456789)
	spans := []Span{
		{TraceID: 0xabc, SpanID: 0x1, Parent: 0, Name: "savepref", Service: "app", Start: start, Duration: 3 * time.Millisecond, OK: true},
		{TraceID: 0xabc, SpanID: 0x2, Parent: 0x1, Name: "lookup", Service: "asd", Start: start.Add(time.Millisecond), Duration: time.Millisecond, OK: false},
	}
	reply := EncodeSpans(spans, cmdlang.OK())
	parsed, err := cmdlang.Parse(reply.String())
	if err != nil {
		t.Fatalf("reply does not parse: %v", err)
	}
	got, err := DecodeSpans(parsed)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("span count = %d", len(got))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d mismatch:\n got %+v\nwant %+v", i, got[i], spans[i])
		}
	}
}
