package ace

// Soak test for the §9 long-lived-system requirement: "Central
// services such as the ASD, AUD, WSS, etc must be fully tested for
// large communication loads, persistence, and extended execution
// time." A full environment runs under sustained mixed load while we
// watch for errors, goroutine leaks, and stuck counters.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/core"
	"ace/internal/daemon"
)

func TestSoakMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	env, err := core.Start(core.Options{Name: "soak", WithIdent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Stop()
	rng := rand.New(rand.NewSource(99))
	if _, err := env.RegisterUser("soaker", "Soak User", "pw", rng); err != nil {
		t.Fatal(err)
	}

	const duration = 5 * time.Second
	const workers = 6
	deadline := time.Now().Add(duration)

	var ops, failures atomic.Int64
	var wg sync.WaitGroup

	// Mixed workload: directory lookups, user reads, workspace opens,
	// store writes/reads, notifications subscriptions churn.
	workloads := []func(p *daemon.Pool, i int) error{
		func(p *daemon.Pool, _ int) error {
			_, err := asd.Resolve(p, env.ASD.Addr(), asd.Query{Name: "wss"})
			return err
		},
		func(p *daemon.Pool, _ int) error {
			_, err := p.Call(env.AUD.Addr(), cmdlang.New("getUser").SetWord("username", "soaker"))
			return err
		},
		func(p *daemon.Pool, _ int) error {
			_, err := p.Call(env.WSS.Addr(), cmdlang.New("openWorkspace").SetWord("user", "soaker"))
			return err
		},
		func(p *daemon.Pool, i int) error {
			if _, err := env.StoreClient.Put("/soak/key", []byte{byte(i)}); err != nil {
				return err
			}
			_, _, _, err := env.StoreClient.Get("/soak/key")
			return err
		},
		func(p *daemon.Pool, _ int) error {
			_, err := p.Call(env.NetLog.Addr(), cmdlang.New(daemon.CmdLogEvent).
				SetWord("source", "soaker").SetWord("event", "tick"))
			return err
		},
		func(p *daemon.Pool, _ int) error {
			_, err := p.Call(env.SAL.Addr(), cmdlang.New(daemon.CmdPing))
			return err
		},
	}

	goroutinesBefore := runtime.NumGoroutine()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := daemon.NewPool(nil)
			defer pool.Close()
			i := 0
			for time.Now().Before(deadline) {
				if err := workloads[(w+i)%len(workloads)](pool, i); err != nil {
					failures.Add(1)
					if failures.Load() < 4 {
						t.Errorf("worker %d op %d: %v", w, i, err)
					}
				}
				ops.Add(1)
				i++
			}
		}(w)
	}
	wg.Wait()

	total := ops.Load()
	if total < 1000 {
		t.Fatalf("soak only completed %d ops in %s", total, duration)
	}
	if f := failures.Load(); f > 0 {
		t.Fatalf("%d/%d soak operations failed", f, total)
	}

	// The environment still answers cleanly after the load.
	pool := daemon.NewPool(nil)
	defer pool.Close()
	if _, err := pool.Call(env.ASD.Addr(), cmdlang.New(daemon.CmdPing)); err != nil {
		t.Fatalf("ASD unresponsive after soak: %v", err)
	}

	// No unbounded goroutine growth: allow generous slack for pooled
	// connections and GC laziness, but catch leaks proportional to
	// op count (tens of thousands of ops ran).
	time.Sleep(200 * time.Millisecond)
	runtime.GC()
	goroutinesAfter := runtime.NumGoroutine()
	if goroutinesAfter > goroutinesBefore+100 {
		t.Fatalf("goroutine leak: %d → %d across %d ops", goroutinesBefore, goroutinesAfter, total)
	}
	t.Logf("soak: %d ops in %s across %d workers (%.0f ops/s), goroutines %d → %d",
		total, duration, workers, float64(total)/duration.Seconds(), goroutinesBefore, goroutinesAfter)
}

// TestSoakOverload sustains roughly twice a daemon's configured
// capacity for several seconds and checks that overload stays
// degradation, not collapse: goodput holds near the pinned capacity, the
// flow controller's shed counters grow (the excess is pushed back as
// busy, not absorbed), and the goroutine count stays bounded — no
// per-request goroutine or queue growth.
func TestSoakOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}

	d := startWorkDaemon(t, "soak_overload")

	goroutinesBefore := runtime.NumGoroutine()

	const duration = 5 * time.Second
	const workers = overloadWorkers
	// Pace each worker to ~2*capacity/workers so the offered load is
	// roughly 2x capacity rather than whatever a spin loop produces.
	pace := time.Duration(float64(workers) * float64(time.Second) / float64(2*workCapacity))
	var ok, busy, other atomic.Int64
	var maxGoroutines atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(duration)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := daemon.NewPoolConfig(daemon.PoolConfig{
				MaxRetries: -1, // surface busy rather than retrying
				Seed:       int64(w + 1),
			})
			defer pool.Close()
			// Staggered starts spread the workers over one pace
			// interval instead of arriving as one burst of workers.
			next := time.Now().Add(time.Duration(w) * pace / workers)
			for time.Now().Before(deadline) {
				if sleep := time.Until(next); sleep > 0 {
					time.Sleep(sleep)
				}
				next = next.Add(pace)
				_, err := pool.Call(d.Addr(), cmdlang.New("work"))
				switch {
				case err == nil:
					ok.Add(1)
				case cmdlang.IsRemoteCode(err, cmdlang.CodeBusy):
					busy.Add(1)
				default:
					other.Add(1)
				}
				if g := int64(runtime.NumGoroutine()); g > maxGoroutines.Load() {
					maxGoroutines.Store(g)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	okN, busyN, otherN := ok.Load(), busy.Load(), other.Load()
	goodput := float64(okN) / elapsed.Seconds()
	t.Logf("overload soak: offered %.0f/s for %v, goodput %.0f/s (capacity %d/s), busy %d, other %d, max goroutines %d (start %d)",
		float64(okN+busyN+otherN)/elapsed.Seconds(), elapsed, goodput, workCapacity, busyN, otherN, maxGoroutines.Load(), goroutinesBefore)

	if otherN > 0 {
		t.Fatalf("%d requests failed with something other than busy", otherN)
	}
	// Shed counters must grow: ~2x capacity means roughly half the
	// offered load is pushed back.
	if busyN == 0 {
		t.Fatal("no requests were shed at 2x capacity")
	}
	if s := d.Flow().Snapshot(); s.ShedData == 0 {
		t.Fatalf("flow shed counter did not grow: %+v", s)
	}
	// Goodput holds: at least 70% of the pinned capacity.
	if goodput < 0.7*float64(workCapacity) {
		t.Fatalf("goodput %.0f/s at 2x offered load, want >= %.0f/s", goodput, 0.7*float64(workCapacity))
	}
	// Bounded footprint: the storm must not have grown goroutines
	// proportionally to offered load (the workers, their pooled
	// connections, and the daemon's fixed thread set are all that is
	// allowed).
	if max := maxGoroutines.Load(); max > int64(goroutinesBefore)+60 {
		t.Fatalf("goroutines grew under overload: %d -> %d", goroutinesBefore, max)
	}
	deadlineG := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+20 && time.Now().Before(deadlineG) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore+20 {
		t.Fatalf("goroutine leak after overload: %d -> %d", goroutinesBefore, g)
	}
}
