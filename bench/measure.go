package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ace/internal/telemetry"
	"ace/internal/wire"
)

// A phase runs in rounds of a second. Each round is a slice in which
// the workers drive ACE and a shorter one in which the same goroutines
// drive the RMI comparison system, so that machine noise lands on both
// sides of vs_rmi_ratio alike, and the RMI slices gauge how fast the
// host ran during the phase (see referenceRMIUS). The metrics are
// computed over the whole phase: every latency it recorded, and the
// resources all its ACE slices used.
const (
	roundLen = time.Second
	rmiShare = 0.1
)

// traceEvery is the mean number of ops between two the traced phase
// wraps in spans. The gaps are drawn at random around it, so that the
// sample does not fall in step with a workload's rotation of op kinds.
const traceEvery = 64

// phase is one timed stretch of a workload.
type phase struct {
	spec workloadSpec

	lat    [][]*samples // [client][class]
	rmiLat []*samples   // [client]

	ops      int64 // ops that succeeded with a correct reply
	failed   int64
	firstErr error

	// What the ACE slices took, the RMI slices left out.
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	wireBytes int64

	clientBefore, clientAfter []*telemetry.Snapshot
	serverBefore, serverAfter []*telemetry.Snapshot
}

func newPhase(spec workloadSpec, clients int) (*phase, error) {
	ph := &phase{spec: spec}
	for c := 0; c < clients; c++ {
		var row []*samples
		for range spec.classes {
			s, err := newSamples()
			if err != nil {
				ph.free()
				return nil, err
			}
			row = append(row, s)
		}
		ph.lat = append(ph.lat, row)
		s, err := newSamples()
		if err != nil {
			ph.free()
			return nil, err
		}
		ph.rmiLat = append(ph.rmiLat, s)
	}
	return ph, nil
}

func (ph *phase) free() {
	for _, row := range ph.lat {
		for _, s := range row {
			s.free()
		}
	}
	for _, s := range ph.rmiLat {
		s.free()
	}
}

// classDist gathers the phase's latencies of the given op classes over
// all clients; with no class given, of every op.
func (ph *phase) classDist(classes ...int) dist {
	if len(classes) == 0 {
		for k := range ph.spec.classes {
			classes = append(classes, k)
		}
	}
	var logs []*samples
	for _, row := range ph.lat {
		for _, k := range classes {
			logs = append(logs, row[k])
		}
	}
	return gather(logs...)
}

func (ph *phase) rmiDist() dist { return gather(ph.rmiLat...) }

// classCount is the number of ops of the given classes the phase
// timed.
func (ph *phase) classCount(classes ...int) float64 {
	n := 0
	for _, row := range ph.lat {
		for _, k := range classes {
			n += row[k].n
		}
	}
	return float64(n)
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func wireBytes(regs []*telemetry.Registry) int64 {
	var n int64
	for _, r := range regs {
		s := r.Snapshot()
		n += s.Counter(wire.MetricBytesSent) + s.Counter(wire.MetricBytesRecv)
	}
	return n
}

// run drives env's workers in a closed loop for dur, one goroutine and
// one connection per worker, interleaving RMI slices. With a tracer,
// about one op in traceEvery is followed by its layer replay.
func (ph *phase) run(ctx context.Context, env environment, k *kit, dur time.Duration, tr *tracer) error {
	ws := env.workers()
	clientRegs := env.clientRegistries()
	rounds := int((dur + roundLen - 1) / roundLen)
	roundDur := dur / time.Duration(rounds)
	rmiLen := time.Duration(float64(roundDur) * rmiShare)

	ph.clientBefore = snapshotAll(clientRegs)
	ph.serverBefore = snapshotAll(env.serverRegistries())
	for i := 0; i < rounds; i++ {
		cpu0, err := cpuTime()
		if err != nil {
			return err
		}
		bytes0, mallocs0 := wireBytes(clientRegs), mallocCount()
		t0 := time.Now()
		if err := ph.aceSlice(ctx, ws, t0.Add(roundDur-rmiLen), tr); err != nil {
			return err
		}
		ph.wall += time.Since(t0)
		cpu1, err := cpuTime()
		if err != nil {
			return err
		}
		ph.cpu += cpu1 - cpu0
		ph.mallocs += mallocCount() - mallocs0
		ph.wireBytes += wireBytes(clientRegs) - bytes0

		if err := ph.rmiSlice(k, time.Now().Add(rmiLen)); err != nil {
			return err
		}
	}
	ph.clientAfter = snapshotAll(clientRegs)
	ph.serverAfter = snapshotAll(env.serverRegistries())
	return nil
}

var errSamplesFull = errors.New("latency log full: the run is longer than the benchmark was sized for")

func (ph *phase) aceSlice(ctx context.Context, ws []worker, deadline time.Time, tr *tracer) error {
	type tally struct {
		ops, failed int64
		firstErr    error
		full        bool
	}
	tallies := make([]tally, len(ws))
	var wg sync.WaitGroup
	for c, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[c]
			untilTrace := 0
			for time.Now().Before(deadline) {
				res := w.step(ctx)
				if res.err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = res.err
					}
				} else {
					t.ops++
				}
				if !ph.lat[c][res.class].add(res.d) {
					t.full = true
					return
				}
				if tr != nil {
					if untilTrace == 0 {
						tr.record(ctx, c, w, res)
						untilTrace = tr.gap(c)
					}
					untilTrace--
				}
			}
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		ph.ops += t.ops
		ph.failed += t.failed
		if ph.firstErr == nil {
			ph.firstErr = t.firstErr
		}
		if t.full {
			return errSamplesFull
		}
	}
	return nil
}

func (ph *phase) rmiSlice(k *kit, deadline time.Time) error {
	errs := make([]error, len(k.rmi))
	var wg sync.WaitGroup
	for c, w := range k.rmi {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				d, err := w.step()
				if err != nil {
					errs[c] = err
					return
				}
				if !ph.rmiLat[c].add(d) {
					errs[c] = errSamplesFull
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// heapInuseMiB is the heap in use after forced collections: the median
// of five, the first of which also empty the pools of free buffers.
func heapInuseMiB() float64 {
	v := make([]float64, 5)
	for i := range v {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		v[i] = float64(ms.HeapInuse) / (1 << 20)
	}
	return median(v)
}

// cpuUSPerOp is the process CPU the phase's ACE slices used per op.
func (ph *phase) cpuUSPerOp() float64 {
	return ratio(float64(ph.cpu.Nanoseconds())/1e3, float64(ph.ops))
}

// referenceRMIUS is the median RMI round trip of the reference machine
// (2 vCPUs) when its host is quiet. The host the sandbox shares slows
// everything in it, the RMI slices as much as the ACE slices around
// them, by up to half for minutes at a time; an episode whose RMI
// median is r is taken to have run r/referenceRMIUS times slower than
// the quiet reference machine, and its times are divided by that.
const referenceRMIUS = 20.0

// endToEnd computes the phase's end-to-end metrics, other than setup_s
// and heap_inuse_mb, which are measured around it, with every time
// scaled to the reference machine's speed; host_slowdown is the factor.
// opPct is the percentile reported as op_p99_us.
func (ph *phase) endToEnd(opPct float64) map[string]float64 {
	all, reads, writes := ph.classDist(), ph.classDist(ph.spec.read...), ph.classDist(ph.spec.write...)
	ops := float64(ph.ops)
	rmiUS := ph.rmiDist().quantileUS(0.5)
	slowdown := rmiUS / referenceRMIUS
	return map[string]float64{
		"host_slowdown":     slowdown,
		"ops_per_s":         ratio(ops, ph.wall.Seconds()) * slowdown,
		"op_p50_us":         ratio(all.quantileUS(0.5), slowdown),
		"op_p99_us":         ratio(all.quantileUS(opPct/100), slowdown),
		"read_p50_us":       ratio(reads.quantileUS(0.5), slowdown),
		"write_p50_us":      ratio(writes.quantileUS(0.5), slowdown),
		"cpu_us_per_op":     ratio(ph.cpuUSPerOp(), slowdown),
		"allocs_per_op":     ratio(float64(ph.mallocs), ops),
		"wire_bytes_per_op": ratio(float64(ph.wireBytes), ops),
		"vs_rmi_ratio":      ratio(all.quantileUS(0.5), rmiUS),
	}
}

// sampleCounts is the number of latencies the phase recorded behind
// each kind of timing metric.
func (ph *phase) sampleCounts() map[string]int {
	counts := map[string]int{
		"op":    int(ph.ops + ph.failed),
		"read":  int(ph.classCount(ph.spec.read...)),
		"write": int(ph.classCount(ph.spec.write...)),
	}
	for _, l := range ph.rmiLat {
		counts["rmi"] += l.n
	}
	return counts
}
