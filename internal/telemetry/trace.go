package telemetry

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext identifies one position in a distributed trace: the
// trace it belongs to, the span representing the current operation,
// and that span's parent. The zero SpanContext means "not traced".
//
// A call origin (acectl, a test, an application entry point) starts
// a trace with NewTrace: TraceID set, SpanID zero — it is the
// implicit root. Every outgoing traced call derives a child context
// with NewChild; the receiving daemon records a span under the
// child's SpanID with Parent pointing at the caller's SpanID, so the
// recorded spans across all daemons assemble into one tree.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64
}

// Valid reports whether the context belongs to a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// NewChild returns the context for an operation caused by sc: same
// trace, fresh span, parented at sc's span.
func (sc SpanContext) NewChild() SpanContext {
	return SpanContext{TraceID: sc.TraceID, SpanID: newID(), Parent: sc.SpanID}
}

// NewTrace returns a root context for a fresh trace.
func NewTrace() SpanContext {
	return SpanContext{TraceID: newID()}
}

// idState seeds the lock-free splitmix64 ID generator from the clock
// once; every newID call is a single atomic add plus mixing.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// newID returns a non-zero pseudo-random 64-bit identifier.
func newID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// FormatID renders a trace or span ID the way it appears in commands
// and acectl output: 16 lower-case hex digits.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses FormatID's output (leading zeros optional).
func ParseID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad trace id %q: %w", s, err)
	}
	return id, nil
}

// ctxKey is the context key for SpanContext propagation.
type ctxKey struct{}

// WithSpanContext attaches sc to ctx.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the SpanContext from ctx (zero when absent).
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// Span is one recorded operation: a command executed by a daemon (or
// a client-side call) within a trace.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	Parent   uint64
	Name     string // operation, usually the command verb
	Service  string // recording daemon's instance name
	Start    time.Time
	Duration time.Duration
	OK       bool
}

// DefaultTraceBufferSpans bounds a daemon's trace buffer.
const DefaultTraceBufferSpans = 4096

// TraceBuffer is a bounded in-process span store. Spans are grouped
// by trace; when the total span budget is exceeded, whole oldest
// traces are evicted (a partial trace is worse than a missing one).
// A nil *TraceBuffer discards all records.
type TraceBuffer struct {
	mu     sync.Mutex
	max    int
	total  int
	traces map[uint64][]Span
	order  []uint64 // trace IDs, oldest first
}

// NewTraceBuffer returns a buffer bounded to DefaultTraceBufferSpans
// recorded spans.
func NewTraceBuffer() *TraceBuffer {
	return &TraceBuffer{max: DefaultTraceBufferSpans, traces: make(map[uint64][]Span)}
}

// Record stores one span, evicting oldest traces when over budget.
func (b *TraceBuffer) Record(s Span) {
	if b == nil || s.TraceID == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.traces[s.TraceID]; !ok {
		b.order = append(b.order, s.TraceID)
	}
	b.traces[s.TraceID] = append(b.traces[s.TraceID], s)
	b.total++
	for b.total > b.max && len(b.order) > 1 {
		oldest := b.order[0]
		if oldest == s.TraceID {
			break // never evict the trace being written
		}
		b.order = b.order[1:]
		b.total -= len(b.traces[oldest])
		delete(b.traces, oldest)
	}
}

// Trace returns the recorded spans of one trace, in recording order.
func (b *TraceBuffer) Trace(traceID uint64) []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Span(nil), b.traces[traceID]...)
}

// TraceIDs returns the buffered trace IDs, oldest first.
func (b *TraceBuffer) TraceIDs() []uint64 {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]uint64(nil), b.order...)
}

// Len returns the total number of buffered spans.
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}
