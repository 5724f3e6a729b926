package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/flow"
	"ace/internal/hlc"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// probeSizes are the numbers of calls the timed probes make. A probe
// that takes nanoseconds is timed in batches, because reading the clock
// costs as much as the call; one that takes microseconds is timed call
// by call; one that crosses the store (a replica leg, a log append) is
// timed over fewer calls, and the disk's own fsync, which may take tens
// of milliseconds, over a tenth of those, so that a traced run stays
// within its time. The smoke test shrinks them; every measured run uses
// defaultProbes.
type probeSizes struct {
	fast, calls, slow int
}

var defaultProbes = probeSizes{fast: 20000, calls: 10000, slow: 1000}

const fastBatch = 100

// timeCalls times each of n calls of fn and returns the median in
// microseconds.
func timeCalls(n int, fn func() error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		d[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(d), nil
}

// timeBatches times n calls of fn in batches of fastBatch and returns
// the median batch's time per call in nanoseconds. fn receives the
// call's index.
func timeBatches(n int, fn func(i int) error) (float64, error) {
	per := make([]float64, 0, n/fastBatch)
	for i := 0; i < n; i += fastBatch {
		t0 := time.Now()
		for j := i; j < i+fastBatch; j++ {
			if err := fn(j); err != nil {
				return 0, fmt.Errorf("probe: %w", err)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/fastBatch)
	}
	return median(per), nil
}

// sink keeps the compiler from discarding a probed call's result.
var sink any

// shellProbes times the layers every ACE call crosses, each on its
// own: cmdlang and wire framing over the workload's own commands, the
// daemon's dispatch path, admission, the clocks, and the instruments.
func shellProbes(ctx context.Context, k *kit, n probeSizes, cmds []*cmdlang.CmdLine, m map[string]float64) error {
	texts := make([]string, len(cmds))
	for i, c := range cmds {
		texts[i] = c.String()
	}
	var err error
	if m["cmdlang.encode_ns"], err = timeBatches(n.fast, func(i int) error {
		sink = cmds[i%len(cmds)].String()
		return nil
	}); err != nil {
		return err
	}
	if m["cmdlang.parse_ns"], err = timeBatches(n.fast, func(i int) error {
		c, err := cmdlang.Parse(texts[i%len(texts)])
		sink = c
		return err
	}); err != nil {
		return err
	}
	// Idle daemons allocate a little in the background; over this many
	// round trips it disappears in the rounding.
	mallocs0 := mallocCount()
	for i := 0; i < n.fast; i++ {
		c, err := cmdlang.Parse(cmds[i%len(cmds)].String())
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		sink = c
	}
	m["cmdlang.allocs_per_roundtrip"] = float64(mallocCount()-mallocs0) / float64(n.fast)

	var frame bytes.Buffer
	if m["wire.frame_ns"], err = timeBatches(n.fast, func(i int) error {
		return frameRoundTrip(&frame, texts[i%len(texts)])
	}); err != nil {
		return err
	}

	// The twin daemon handles the call workload's verbs, so its
	// dispatch path is timed on that mix whatever the workload.
	shell := newCallGen(1)
	shellCmds := make([]*cmdlang.CmdLine, 64)
	for i := range shellCmds {
		shellCmds[i] = shell.command(shell.next())
	}
	if m["daemon.dispatch_ns"], err = timeBatches(n.fast, func(i int) error {
		return k.dispatch(shellCmds[i%len(shellCmds)])
	}); err != nil {
		return err
	}

	wc, err := wire.Dial(nil, k.twin.Addr())
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer func() { _ = wc.Close() }() // every call on it has returned; a failed close loses nothing
	ping := cmdlang.New(daemon.CmdPing)
	if m["wire.call_us"], err = timeCalls(n.calls, func() error {
		_, err := wc.CallContext(ctx, ping)
		return err
	}); err != nil {
		return err
	}
	pool := daemon.NewPool(nil)
	defer pool.Close()
	pooled, err := timeCalls(n.calls, func() error {
		_, err := pool.CallContext(ctx, k.twin.Addr(), ping)
		return err
	})
	if err != nil {
		return err
	}
	m["daemon.pool_overhead_us"] = pooled - m["wire.call_us"]

	if m["flow.admit_ns"], err = timeBatches(n.fast, func(int) error { return k.admit(ctx) }); err != nil {
		return err
	}

	clock := hlc.New(nil, 0, nil)
	if m["hlc.now_ns"], err = timeBatches(n.fast, func(int) error {
		sink = clock.Now()
		return nil
	}); err != nil {
		return err
	}
	// Instruments of no registry: the benchmark registers no metric
	// name with ACE.
	var hist telemetry.Histogram
	var count telemetry.Counter
	if m["telemetry.observe_ns"], err = timeBatches(n.fast, func(i int) error {
		hist.Observe(time.Duration(i) * time.Microsecond)
		count.Inc()
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// calibrationProbes time what the benchmark itself and the machine
// contribute: the op generator, the clock, the loopback, the disk.
// They explain differences between machines and must not move when
// only ACE changes.
func calibrationProbes(k *kit, n probeSizes, w worker, cmds []*cmdlang.CmdLine, dir string, m map[string]float64) error {
	var err error
	if m["bench.gen_ns_per_op"], err = timeBatches(n.fast, func(int) error {
		w.generate()
		return nil
	}); err != nil {
		return err
	}
	if m["bench.clock_ns"], err = timeBatches(n.fast, func(int) error {
		sink = time.Since(time.Now())
		return nil
	}); err != nil {
		return err
	}
	frameLen := 0
	for _, c := range cmds {
		frameLen += len(c.String()) + 4
	}
	frameLen /= len(cmds)
	if m["bench.loopback_rtt_us"], err = timeCalls(n.calls, func() error {
		return k.echo[0].roundTrip(frameLen, 32)
	}); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer f.Close()
	block := make([]byte, 4096)
	if m["bench.fsync_us"], err = timeCalls(max(n.slow/10, 1), func() error {
		if _, err := f.Write(block); err != nil {
			return err
		}
		return f.Sync()
	}); err != nil {
		return err
	}
	return nil
}

// storageProbes time the storage engine on a scratch log beside the
// cluster's own: one durable append, and a batch of sixteen.
func storageProbes(dir string, n probeSizes, m map[string]float64) error {
	eng, _, _, err := storage.Open(filepath.Join(dir, "probe-log"), storeOptions)
	if err != nil {
		return fmt.Errorf("probe: open scratch log: %w", err)
	}
	value := make([]byte, valueLen)
	encodeValue(value, 0, loaderClient, 0)
	var version uint64
	next := func() storage.Record {
		version++
		return storage.Record{Path: legPrefix + "/append", Value: value, Version: version}
	}
	if m["storage.append_us"], err = timeCalls(n.slow, func() error { return eng.Append(next()) }); err != nil {
		return errors.Join(err, eng.Close())
	}
	const batch = 16
	recs := make([]storage.Record, batch)
	batchUS, err := timeCalls(n.slow/4, func() error {
		for i := range recs {
			recs[i] = next()
		}
		return eng.AppendBatch(recs)
	})
	if err != nil {
		return errors.Join(err, eng.Close())
	}
	m["storage.append_batch_us_per_rec"] = batchUS / batch
	if err := eng.Close(); err != nil {
		return fmt.Errorf("probe: close scratch log: %w", err)
	}
	return nil
}

// counterMetrics derives the per-layer counts of the untraced phase
// from the registries' snapshots at its edges.
func counterMetrics(ph *phase, m map[string]float64) {
	ops := float64(ph.ops)
	cb, ca, sb, sa := ph.clientBefore, ph.clientAfter, ph.serverBefore, ph.serverAfter
	m["wire.frames_per_op"] = ratio(counterDelta(cb, ca, wire.MetricFramesSent, wire.MetricFramesRecv), ops)
	m["wire.call_timeouts"] = counterDelta(cb, ca, wire.MetricCallTimeouts) + counterDelta(sb, sa, wire.MetricCallTimeouts)
	_, handler := histDelta(sb, sa, func(n string) bool { return strings.HasPrefix(n, daemon.MetricDispatchPrefix) })
	m["daemon.handler_us_per_op"] = ratio(float64(handler.Nanoseconds())/1e3, ops)
	m["daemon.pool_retries"] = counterDelta(cb, ca, daemon.MetricPoolRetries, daemon.MetricPoolBusyRetries) +
		counterDelta(sb, sa, daemon.MetricPoolRetries, daemon.MetricPoolBusyRetries)
	_, waited := histDelta(sb, sa, func(n string) bool { return n == flow.MetricQueueWaitData })
	m["flow.queue_wait_us_per_op"] = ratio(float64(waited.Nanoseconds())/1e3, ops)
	m["flow.shed"] = counterDelta(sb, sa, flow.MetricShedControl, flow.MetricShedData)
	limits := make([]float64, 0, len(sa))
	for _, s := range sa {
		if l := s.Gauge(flow.MetricLimit); l > 0 {
			limits = append(limits, float64(l))
		}
	}
	if len(limits) > 0 {
		m["flow.limit_end"] = slices.Min(limits)
	}
	m["bench.fail_ratio"] = ratio(float64(ph.failed)+m["flow.shed"], float64(ph.ops+ph.failed))
}

// rmiMetrics reports the comparison system's own numbers.
func rmiMetrics(k *kit, ph *phase, m map[string]float64) {
	m["rmi.call_p50_us"] = ph.rmiDist().quantileUS(0.5)
	var bytes, calls int64
	for _, w := range k.rmi {
		sent, recv := w.c.Traffic()
		bytes += sent + recv
		calls += int64(w.gen.n)
	}
	m["rmi.bytes_per_call"] = ratio(float64(bytes), float64(calls))
}

// settle gives background work of the phase just ended (straggler
// drains, read repairs, notification deliveries) a moment to finish
// and returns memory to a steady state before probes run.
func settle() {
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
}
