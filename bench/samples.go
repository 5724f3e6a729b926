package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// sampleCap bounds the latencies one client records per op class in
// one phase: 4 Mi samples is above a minute of the fastest op class
// any workload issues. The memory is mapped lazily, so only what is
// used is ever resident.
const sampleCap = 4 << 20

// samples is a fixed-capacity log of op latencies in nanoseconds. It
// lives in an anonymous mapping outside the Go heap, so heap_inuse_mb
// and the garbage collector see the program under test and not the
// benchmark's own bookkeeping, however many ops a run completes.
type samples struct {
	mem []byte
	n   int
}

func newSamples() (*samples, error) {
	mem, err := syscall.Mmap(-1, 0, sampleCap*4,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample buffer: %w", err)
	}
	return &samples{mem: mem}, nil
}

// add records one latency, saturating at the 4.29 s a uint32 of
// nanoseconds holds. It reports false when the buffer is full.
func (s *samples) add(d time.Duration) bool {
	if s.n == sampleCap {
		return false
	}
	ns := uint32(math.MaxUint32)
	if d < 0 {
		ns = 0
	} else if d < math.MaxUint32 {
		ns = uint32(d)
	}
	binary.LittleEndian.PutUint32(s.mem[4*s.n:], ns)
	s.n++
	return true
}

// appendTo copies the recorded latencies onto dst.
func (s *samples) appendTo(dst []uint32) []uint32 {
	for i := 0; i < s.n; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(s.mem[4*i:]))
	}
	return dst
}

func (s *samples) free() {
	if s.mem != nil {
		_ = syscall.Munmap(s.mem) // unmapping a mapping this type made cannot fail
		s.mem = nil
	}
}

// dist is a sorted set of latencies.
type dist []uint32

// gather merges and sorts the given sample logs.
func gather(logs ...*samples) dist {
	n := 0
	for _, l := range logs {
		n += l.n
	}
	out := make([]uint32, 0, n)
	for _, l := range logs {
		out = l.appendTo(out)
	}
	slices.Sort(out)
	return out
}

// quantileUS returns the q-quantile in microseconds, interpolating
// between neighbouring ranks; 0 when there are no samples.
func (d dist) quantileUS(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	pos := q * float64(len(d)-1)
	lo := int(pos)
	hi := min(lo+1, len(d)-1)
	frac := pos - float64(lo)
	return (float64(d[lo])*(1-frac) + float64(d[hi])*frac) / 1e3
}

// tailPercentile returns the highest percentile up to the 99th that
// has ten of n samples beyond it. A measured run always reaches 99;
// only the smoke test's fraction of a second falls short.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// median returns the median of v, 0 when v is empty; v is left as it
// was.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
