package telemetry

// Micro-benchmarks for the histogram hot path. Observe is called on
// every dispatched command and every wire call, so its cost bounds
// the telemetry overhead (the benchmark's telemetry.observe_ns).

import (
	"testing"
	"time"
)

func BenchmarkObserveSerial(b *testing.B) {
	h := NewRegistry().Histogram("bench")
	d := 500 * time.Nanosecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(d)
	}
}

func BenchmarkObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("bench")
	d := 500 * time.Nanosecond
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(d)
		}
	})
}
