package hlc

import (
	"sync"
	"testing"
	"time"

	"ace/internal/telemetry"
)

// fixedWall returns a wall source pinned to a settable instant.
type fixedWall struct {
	mu sync.Mutex
	t  time.Time
}

func (w *fixedWall) now() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.t
}

func (w *fixedWall) set(t time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.t = t
}

func TestTimestampPacking(t *testing.T) {
	ts := Make(1234567890123, 77)
	if ts.WallMS() != 1234567890123 {
		t.Fatalf("WallMS = %d", ts.WallMS())
	}
	if ts.Logical() != 77 {
		t.Fatalf("Logical = %d", ts.Logical())
	}
	// Integer comparison is HLC ordering: wall dominates, logical
	// breaks ties.
	if !(Make(10, 0) < Make(10, 1) && Make(10, 65535) < Make(11, 0)) {
		t.Fatal("packed ordering broken")
	}
	if !Timestamp(0).IsZero() || Make(1, 0).IsZero() {
		t.Fatal("IsZero broken")
	}
	// Out-of-range wall readings saturate instead of wrapping into
	// the logical bits.
	if Make(-5, 3).WallMS() != 0 || Make(1<<60, 3).WallMS() != maxWallMS {
		t.Fatal("saturation broken")
	}
}

func TestNowMonotonicWithinStuckClock(t *testing.T) {
	w := &fixedWall{t: time.UnixMilli(5000)}
	c := New(w.now, 0, nil)
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		ts := c.Now()
		if ts <= prev {
			t.Fatalf("Now not monotonic: %v then %v", prev, ts)
		}
		prev = ts
	}
	if prev.WallMS() != 5000 {
		t.Fatalf("stuck clock advanced wall: %v", prev)
	}
	// Physical progress resets the logical counter.
	w.set(time.UnixMilli(6000))
	ts := c.Now()
	if ts.WallMS() != 6000 || ts.Logical() != 0 {
		t.Fatalf("advance = %v", ts)
	}
}

func TestUpdateMergesRemote(t *testing.T) {
	w := &fixedWall{t: time.UnixMilli(5000)}
	c := New(w.now, time.Second, nil)
	remote := Make(5100, 7) // 100ms ahead: within tolerance
	got := c.Update(remote)
	if got <= remote {
		t.Fatalf("Update result %v not after remote %v", got, remote)
	}
	if got.WallMS() != 5100 {
		t.Fatalf("Update wall = %v", got)
	}
	// A stale remote must not move the clock backwards.
	got2 := c.Update(Make(100, 0))
	if got2 <= got {
		t.Fatalf("stale remote regressed clock: %v then %v", got, got2)
	}
}

func TestUpdateClampsSkewedRemote(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := &fixedWall{t: time.UnixMilli(5000)}
	c := New(w.now, 200*time.Millisecond, reg)
	// Remote 10s ahead: clamped to pt+MaxOffset.
	got := c.Update(Make(15000, 0))
	if got.WallMS() > 5200 {
		t.Fatalf("clamp failed: wall ran to %d", got.WallMS())
	}
	snap := reg.Snapshot()
	if snap.Counter(MetricSkewClamps) != 1 {
		t.Fatalf("skew_clamps = %d", snap.Counter(MetricSkewClamps))
	}
}

func TestLogicalOverflowNearMaxSkew(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := &fixedWall{t: time.UnixMilli(5000)}
	c := New(w.now, 100*time.Millisecond, reg)
	// Drive the clock to the clamp limit, then exhaust the 16-bit
	// logical space inside that one clamped millisecond. The wall
	// component must roll forward 1ms instead of the counter
	// wrapping to zero (which would order new events before old).
	prev := c.Update(Make(99999, 0)) // clamped to 5100
	if prev.WallMS() != 5100 {
		t.Fatalf("setup: wall = %d", prev.WallMS())
	}
	for i := 0; i < 70000; i++ {
		ts := c.Now()
		if ts <= prev {
			t.Fatalf("overflow broke monotonicity: %v then %v", prev, ts)
		}
		prev = ts
	}
	if prev.WallMS() <= 5100 {
		t.Fatal("logical overflow never rolled the wall forward")
	}
	if reg.Snapshot().Counter(MetricOverflows) == 0 {
		t.Fatal("overflow not counted")
	}
}

func TestConcurrentNowUpdate(t *testing.T) {
	// Run Now/Update from many goroutines under -race, and
	// check per-goroutine monotonicity of the returned readings.
	c := New(time.Now, 0, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev Timestamp
			for i := 0; i < 2000; i++ {
				var ts Timestamp
				if i%2 == 0 {
					ts = c.Now()
				} else {
					ts = c.Update(Make(int64(4000+i), uint16(g)))
				}
				if ts <= prev {
					panic("per-goroutine monotonicity violated")
				}
				prev = ts
			}
		}(g)
	}
	wg.Wait()
}
