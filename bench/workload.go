package main

import (
	"context"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
)

// sizes are the working-set sizes of the workloads. The smoke test
// shrinks them; every measured run uses defaultSizes.
type sizes struct {
	keys     int // store_*: preloaded keys
	services int // directory: registered services
}

var defaultSizes = sizes{keys: 16384, services: 512}

// runConfig is what a workload's set-up needs to know.
type runConfig struct {
	seed    int64
	clients int
	dir     string // scratch directory for durable state
	sizes   sizes
}

// opResult is the outcome of one closed-loop step: which class of op
// ran, how long the client waited for it, and an error when the op
// failed or its reply was wrong.
type opResult struct {
	class int
	start time.Time
	d     time.Duration
	err   error
}

// worker is one closed-loop client: it issues its next op only after
// the previous one returned.
type worker interface {
	// step generates the next op from the worker's seeded generator,
	// performs it, and checks the reply. Only the call into ACE is
	// timed; generating and checking are not.
	step(ctx context.Context) opResult
	// generate draws the next op and builds its command without
	// performing it: the generator's own cost, for calibration.
	generate()
	// replay re-runs, one layer at a time and on the inputs of the op
	// step last performed, the layers that op crossed, recording each
	// as a child span of root.
	replay(ctx context.Context, r *replayer, root int)
}

// environment is one workload's running system under test.
type environment interface {
	workers() []worker
	// clientRegistries are the registries of the pools the workers call
	// through: wire bytes and frames per op are read from them.
	clientRegistries() []*telemetry.Registry
	// serverRegistries are the registries of every daemon and internal
	// pool behind the workers.
	serverRegistries() []*telemetry.Registry
	// sampleCommands returns n commands of the workload's own mix, for
	// the probes that time cmdlang and wire on their own.
	sampleCommands(n int) []*cmdlang.CmdLine
	// layerMetrics adds the per-layer metrics only this workload can
	// measure (probes against its daemons, state it alone can read).
	// It runs after the measured phase, on the still-warm system.
	layerMetrics(ctx context.Context, n probeSizes, m map[string]float64, ph *phase) error
	// verify runs the workload's end-of-run correctness checks and
	// returns the number of acknowledged writes found lost.
	verify(ctx context.Context, m map[string]float64) (lost int, err error)
	close()
}

// workloadSpec describes one named workload.
type workloadSpec struct {
	name    string
	classes []string // op class names, indexed by opResult.class
	// read and write pick the classes behind read_p50_us and
	// write_p50_us / write_p99_us.
	read, write []int
	setup       func(cfg runConfig) (environment, error)
}

var workloads = []workloadSpec{callSpec, storeMixedSpec, storeReadSpec, directorySpec}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// snapshotAll snapshots every registry in regs.
func snapshotAll(regs []*telemetry.Registry) []*telemetry.Snapshot {
	out := make([]*telemetry.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

// counterDelta sums the growth of the named counters across matching
// before/after snapshots.
func counterDelta(before, after []*telemetry.Snapshot, names ...string) float64 {
	var total int64
	for i := range after {
		for _, name := range names {
			total += after[i].Counter(name) - before[i].Counter(name)
		}
	}
	return float64(total)
}

// histDelta sums the growth in count and total time of the histograms
// whose name satisfies match.
func histDelta(before, after []*telemetry.Snapshot, match func(name string) bool) (count float64, sum time.Duration) {
	for i := range after {
		for _, h := range after[i].Histograms {
			if !match(h.Name) {
				continue
			}
			count += float64(h.Count)
			sum += h.Sum
			if b, ok := before[i].Histogram(h.Name); ok {
				count -= float64(b.Count)
				sum -= b.Sum
			}
		}
	}
	return count, sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
