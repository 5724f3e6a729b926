package ace

// Overload bench for the flow admission-control subsystem. A daemon
// whose capacity is pinned by a per-command cost (startWorkDaemon) is
// offered paced load at 1x, 2x, and 4x that capacity; for each
// multiple we record goodput (admitted requests per second), the
// busy-shed count, and the p99 latency of the *admitted* requests. The
// gate is the no-congestion-collapse property: goodput at 4x offered
// load must hold at >= 70% of the 1x baseline — shedding must protect
// the work we do admit, not just refuse work.
//
// `make bench-flow` runs TestBenchFlow with ACE_BENCH_FLOW=1 and
// writes the comparison to BENCH_flow.json at the repo root. The
// plain test suite skips this so tier-1 runs stay fast.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/flow"
)

// workCost is what one "work" command costs: its handler sleeps that
// long in the daemon's serial section, so a daemon serving it
// completes at most workCapacity commands per second on any CPU. The
// capacity is small enough that a few paced workers reach 4x even on a
// single-core machine.
const (
	workCost     = 5 * time.Millisecond
	workCapacity = int(time.Second / workCost)
)

// overloadWorkers is how many paced workers offer load, each on its
// own connection: a connection has at most one command in flight, so
// there must be more workers than the limit plus the queue for the
// controller to shed anything.
const overloadWorkers = 16

// startWorkDaemon starts a daemon serving the costed "work" verb under
// a fixed concurrency limit of 4 with an 8-deep queue: four tickets
// take turns in the serial section, eight waiters stand behind them,
// and anything beyond that is shed busy.
func startWorkDaemon(t *testing.T, name string) *daemon.Daemon {
	t.Helper()
	d := daemon.New(daemon.Config{
		Name: name,
		Flow: &flow.Config{
			InitialLimit: 4,
			MinLimit:     4,
			MaxLimit:     4,
			QueueLen:     8,
			MaxQueueWait: 25 * time.Millisecond,
		},
	})
	d.Handle(cmdlang.CommandSpec{Name: "work"}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		time.Sleep(workCost)
		return cmdlang.OK(), nil
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// flowBenchReport is one load point in BENCH_flow.json.
type flowBenchReport struct {
	Multiple       int     `json:"multiple"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	GoodputPerSec  float64 `json:"goodput_per_sec"`
	Busy           int64   `json:"busy"`
	P99AdmittedMs  float64 `json:"p99_admitted_ms"`
	MeanAdmittedMs float64 `json:"mean_admitted_ms"`
}

// runFlowLoad offers mult x workCapacity for the given duration and
// reports what came back. Workers pace themselves (next-time pacing,
// not sleep-per-iteration) so the offered rate is controlled rather
// than whatever a closed loop produces.
func runFlowLoad(t *testing.T, addr string, mult int, duration time.Duration) flowBenchReport {
	const workers = overloadWorkers
	pace := time.Duration(float64(workers) * float64(time.Second) / float64(mult*workCapacity))
	var ok, busy, other atomic.Int64
	var mu sync.Mutex
	var latencies []time.Duration
	var wg sync.WaitGroup
	deadline := time.Now().Add(duration)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := daemon.NewPoolConfig(daemon.PoolConfig{
				MaxRetries: -1, // surface busy; retries would hide shedding
				Seed:       int64(w + 1),
			})
			defer pool.Close()
			local := make([]time.Duration, 0, 4096)
			// Staggered starts spread the workers over one pace
			// interval instead of arriving as one burst of workers.
			next := time.Now().Add(time.Duration(w) * pace / workers)
			for time.Now().Before(deadline) {
				if sleep := time.Until(next); sleep > 0 {
					time.Sleep(sleep)
				}
				next = next.Add(pace)
				t0 := time.Now()
				_, err := pool.Call(addr, cmdlang.New("work"))
				switch {
				case err == nil:
					ok.Add(1)
					local = append(local, time.Since(t0))
				case cmdlang.IsRemoteCode(err, cmdlang.CodeBusy):
					busy.Add(1)
				default:
					other.Add(1)
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if n := other.Load(); n > 0 {
		t.Fatalf("%dx: %d requests failed with something other than busy", mult, n)
	}
	okN, busyN := ok.Load(), busy.Load()
	if okN == 0 {
		t.Fatalf("%dx: no requests were admitted", mult)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	mean := sum / time.Duration(len(latencies))
	rep := flowBenchReport{
		Multiple:       mult,
		OfferedPerSec:  float64(okN+busyN) / elapsed.Seconds(),
		GoodputPerSec:  float64(okN) / elapsed.Seconds(),
		Busy:           busyN,
		P99AdmittedMs:  float64(p99) / float64(time.Millisecond),
		MeanAdmittedMs: float64(mean) / float64(time.Millisecond),
	}
	t.Logf("%dx: offered %7.0f/s  goodput %7.0f/s  busy %6d  p99 %6.2fms  mean %6.2fms",
		mult, rep.OfferedPerSec, rep.GoodputPerSec, busyN, rep.P99AdmittedMs, rep.MeanAdmittedMs)
	return rep
}

// TestBenchFlow is the gate behind `make bench-flow`. It is skipped
// unless ACE_BENCH_FLOW=1 so the regular test suite never pays for
// benchmarking.
func TestBenchFlow(t *testing.T) {
	if os.Getenv("ACE_BENCH_FLOW") == "" {
		t.Skip("set ACE_BENCH_FLOW=1 (or run `make bench-flow`) to measure overload behaviour")
	}

	d := startWorkDaemon(t, "bench_flow")

	const duration = 3 * time.Second
	var reports []flowBenchReport
	for _, mult := range []int{1, 2, 4} {
		reports = append(reports, runFlowLoad(t, d.Addr(), mult, duration))
	}

	// The gate: goodput at 4x offered load holds at >= 70% of the 1x
	// baseline. A failure here means overload degrades admitted work —
	// congestion collapse, the exact thing admission control exists to
	// prevent.
	baseline, at4x := reports[0].GoodputPerSec, reports[2].GoodputPerSec
	if at4x < 0.7*baseline {
		t.Errorf("goodput at 4x offered load is %.0f/s, want >= 70%% of the 1x baseline %.0f/s", at4x, baseline)
	}
	// Shedding must actually engage at overload, or the gate above is
	// vacuously measuring an idle system.
	if reports[2].Busy == 0 {
		t.Error("no requests were shed at 4x offered load")
	}

	out := os.Getenv("ACE_BENCH_FLOW_OUT")
	if out == "" {
		out = "BENCH_flow.json"
	}
	payload := map[string]any{
		"benchmark":    "flow-overload",
		"date":         time.Now().UTC().Format(time.RFC3339),
		"capacity_rps": workCapacity,
		"results":      reports,
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
