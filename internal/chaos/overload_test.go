package chaos_test

// Overload chaos test for the flow admission-control subsystem: an
// ASD whose daemon serves a costed data verb under a fixed concurrency
// limit is offered several times its capacity in that verb while live
// daemons depend on it for lease renewal. The contract under test, end
// to end:
//
//   - shed requests are answered with a retryable "busy" reply — they
//     never hang and never lose their connection;
//   - data-plane goodput holds at >= 70% of the pinned capacity even
//     at several x offered load (no congestion collapse);
//   - control traffic (lease renewals) rides the reserved headroom:
//     zero lease expirations while the storm runs.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/flow"
)

// overloadCost is what one "work" command costs: its handler sleeps
// that long in the directory daemon's serial section, which pins the
// data-plane capacity at overloadCapacity commands per second on any
// CPU.
const (
	overloadCost     = 5 * time.Millisecond
	overloadCapacity = int(time.Second / overloadCost)
)

func TestChaosOverloadGoodputAndLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak")
	}
	dir := asd.New(asd.Config{
		ReapInterval: 20 * time.Millisecond,
		Daemon: daemon.Config{
			Flow: &flow.Config{
				InitialLimit: 4,
				MinLimit:     4,
				MaxLimit:     4,
				QueueLen:     8,
				MaxQueueWait: 30 * time.Millisecond,
			},
		},
	})
	dir.Handle(cmdlang.CommandSpec{Name: "work"}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		time.Sleep(overloadCost) // the verb's service time
		return cmdlang.OK(), nil
	})
	if err := dir.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dir.Stop)

	// Three daemons hold short leases against the swamped directory.
	// Their renewals are control-plane: they must never be shed.
	leaseHolders := []string{"lease_a", "lease_b", "lease_c"}
	for _, name := range leaseHolders {
		d := daemon.New(daemon.Config{
			Name:     name,
			ASDAddr:  dir.Addr(),
			LeaseTTL: 300 * time.Millisecond,
			PoolConfig: &daemon.PoolConfig{
				DialTimeout: 300 * time.Millisecond,
				CallTimeout: time.Second,
				MaxRetries:  1,
				BackoffBase: 5 * time.Millisecond,
				BackoffMax:  20 * time.Millisecond,
				Seed:        chaosSeed,
			},
		})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
	}
	for _, name := range leaseHolders {
		if _, ok := dir.Directory().Get(name); !ok {
			t.Fatalf("%s did not register", name)
		}
	}

	goroutinesBefore := runtime.NumGoroutine()

	// The storm: closed-loop workers with retries disabled, so every
	// busy reply surfaces instead of being absorbed by the pool. Each
	// worker has one command in flight on its own connection, so more
	// workers than the limit plus the queue keep the directory shedding;
	// the assertion below checks the overload was real.
	const workers = 16
	const stormDuration = 2 * time.Second
	var ok, busy, other atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(stormDuration)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := daemon.NewPoolConfig(daemon.PoolConfig{
				DialTimeout: 300 * time.Millisecond,
				CallTimeout: time.Second,
				MaxRetries:  -1, // surface busy; do not retry
				Seed:        chaosSeed + int64(w),
			})
			defer pool.Close()
			for time.Now().Before(deadline) {
				_, err := pool.Call(dir.Addr(), cmdlang.New("work"))
				switch {
				case err == nil:
					ok.Add(1)
				case cmdlang.IsRemoteCode(err, cmdlang.CodeBusy):
					busy.Add(1)
				default:
					other.Add(1)
					if other.Load() < 4 {
						t.Errorf("worker %d: non-busy failure under overload: %v", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	okN, busyN, otherN := ok.Load(), busy.Load(), other.Load()
	offered := okN + busyN + otherN
	goodput := float64(okN) / elapsed.Seconds()
	t.Logf("overload: offered %d (%.0f/s), goodput %.0f/s (capacity %d/s), busy %d, other %d",
		offered, float64(offered)/elapsed.Seconds(), goodput, overloadCapacity, busyN, otherN)

	// The overload must have been real (several x capacity) or the
	// test proves nothing.
	if float64(offered) < 3*float64(overloadCapacity)*elapsed.Seconds() {
		t.Skipf("machine too slow to generate overload: offered only %d requests in %v", offered, elapsed)
	}
	if busyN == 0 {
		t.Fatal("overload never shed a request")
	}
	// Shed traffic failed fast and clean: busy replies only.
	if otherN > 0 {
		t.Fatalf("%d requests failed with something other than busy", otherN)
	}
	// No congestion collapse: goodput >= 70% of pinned capacity.
	if goodput < 0.7*float64(overloadCapacity) {
		t.Fatalf("goodput %.0f/s under overload, want >= %.0f/s", goodput, 0.7*float64(overloadCapacity))
	}

	// Control plane survived: zero lease expirations, zero shed
	// control commands, every lease holder still listed.
	if snap := dir.Telemetry().Snapshot(); snap.Counter(asd.MetricExpirations) != 0 {
		t.Fatalf("%d leases expired during the storm", snap.Counter(asd.MetricExpirations))
	}
	if s := dir.Flow().Snapshot(); s.ShedControl != 0 {
		t.Fatalf("control traffic was shed under overload: %+v", s)
	}
	for _, name := range leaseHolders {
		if _, ok := dir.Directory().Get(name); !ok {
			t.Fatalf("%s lost its directory entry during the storm", name)
		}
	}

	// The storm left no goroutine debris behind.
	deadlineG := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+20 && time.Now().Before(deadlineG) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore+20 {
		t.Fatalf("goroutine growth after storm: %d -> %d", goroutinesBefore, g)
	}
}
