package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	seed    int64
	seconds time.Duration // length of the measured phase
	warmup  time.Duration
	trace   bool // false: end-to-end metrics; true: per-layer metrics
	clients int
	sizes   sizes
	probes  probeSizes
	outDir  string
}

// episodes is the number of freshly set-up instances of the system an
// untraced run measures, each for an equal share of the measured time.
// Three give setup_s a median, and keep what one instance happened to
// land on (the layout of its files on disk, which replica tends to
// answer first) from setting the result.
const episodes = 3

// conditions records what a run ran on, so that rows measured on
// different machines or commits can be told apart.
type conditions struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Filesystem string  `json:"tmpdir_filesystem"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	SecondsS   float64 `json:"seconds"`
	Keys       int     `json:"store_keys"`
	Services   int     `json:"directory_services"`
}

// runRecord is everything one run of one workload reports.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Error     string                 `json:"error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the number of latencies behind each kind of timing
	// metric over the measured phases; TailPercentile the percentile
	// each tail metric really is (99 unless there are too few ops for
	// ten samples beyond it).
	Samples        map[string]int     `json:"samples"`
	TailPercentile map[string]float64 `json:"tail_percentile"`
	// Episodes holds each end-to-end metric's value in every episode of
	// an untraced run, and under host_slowdown the factor its times were
	// divided by; the metric reported is the episodes' median.
	Episodes   map[string][]float64 `json:"episodes,omitempty"`
	Budget     *budget              `json:"budget,omitempty"`
	TraceFile  string               `json:"trace_file,omitempty"`
	Conditions conditions           `json:"conditions"`
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// filesystemOf names the filesystem dir is on, which sets what an
// fsync costs.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// commit asks git for the checked-out commit; a working directory that
// is not the root of a repository reports "unknown" without asking,
// so that git does not go looking through the directories above it.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (o options) conditions(dir string) conditions {
	return conditions{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Kernel: kernelRelease(), Filesystem: filesystemOf(dir),
		Clients: o.clients, Seed: o.seed, WarmupS: o.warmup.Seconds(), SecondsS: o.seconds.Seconds(),
		Keys: o.sizes.keys, Services: o.sizes.services,
	}
}

// runWorkload sets the workload's system up, warms it, measures it,
// and checks it. A returned error means the benchmark itself could not
// run; a wrong reply or a lost write is reported in the record.
func runWorkload(ctx context.Context, spec workloadSpec, o options) (*runRecord, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("create %s: %w", o.outDir, err)
	}
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, fmt.Errorf("create run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	k, err := newKit(o.seed, o.clients)
	if err != nil {
		return nil, err
	}
	defer k.close()

	// Checks and probes together take seconds. A run that outlasts this
	// allowance has hung in one of them, and the deadline turns the hang
	// into an error.
	ctx, cancel := context.WithTimeout(ctx, o.seconds+episodes*o.warmup+2*time.Minute)
	defer cancel()

	r := &runner{spec: spec, o: o, k: k, dir: dir, values: map[string]float64{},
		rec: &runRecord{Workload: spec.name, Conditions: o.conditions(dir)}}
	if o.trace {
		r.rec.Trace = 1
		err = r.tracedEpisode(ctx)
	} else {
		err = r.untracedEpisodes(ctx)
	}
	if err != nil {
		return nil, err
	}
	rec := r.rec
	rec.Correct = rec.Failed == 0 && rec.Error == ""
	if o.trace {
		rec.Metrics = metricSet(perLayer, r.values)
	} else {
		rec.Metrics = metricSet(endToEnd, r.values)
	}
	return rec, nil
}

// runner carries one run of one workload through its episodes.
type runner struct {
	spec   workloadSpec
	o      options
	k      *kit
	dir    string
	setups int
	rec    *runRecord
	values map[string]float64
}

// setup sets the system up once more, in a directory of its own, and
// times it.
func (r *runner) setup() (environment, time.Duration, error) {
	cfg := runConfig{seed: r.o.seed, clients: r.o.clients, sizes: r.o.sizes,
		dir: filepath.Join(r.dir, fmt.Sprintf("setup%d", r.setups))}
	r.setups++
	if err := os.Mkdir(cfg.dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("create set-up directory: %w", err)
	}
	t0 := time.Now()
	env, err := r.spec.setup(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set up: %w", r.spec.name, err)
	}
	return env, time.Since(t0), nil
}

// teardown stops env and removes what it left on disk.
func (r *runner) teardown(env environment) error {
	env.close()
	if err := os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("setup%d", r.setups-1))); err != nil {
		return fmt.Errorf("remove set-up directory: %w", err)
	}
	return nil
}

// measure runs one phase of dur on env: untraced after a warm-up, or
// traced, straight after the untraced phase that warmed it.
func (r *runner) measure(ctx context.Context, env environment, dur time.Duration, tr *tracer) (*phase, error) {
	// The workers call with no deadline, as a plain ACE caller does: the
	// pool then arms its own call timeout, which is part of what a call
	// costs.
	ctx = context.WithoutCancel(ctx)
	if tr == nil {
		warm, err := newPhase(r.spec, r.o.clients)
		if err != nil {
			return nil, err
		}
		defer warm.free()
		if err := warm.run(ctx, env, r.k, r.o.warmup, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", r.spec.name, err)
		}
		r.rec.add(warm)
	}
	ph, err := newPhase(r.spec, r.o.clients)
	if err != nil {
		return nil, err
	}
	if err := ph.run(ctx, env, r.k, dur, tr); err != nil {
		ph.free()
		return nil, fmt.Errorf("%s: measure: %w", r.spec.name, err)
	}
	r.rec.add(ph)
	return ph, nil
}

// verify runs env's end-of-run checks into the record.
func (r *runner) verify(ctx context.Context, env environment) {
	lost, err := env.verify(ctx, r.values)
	if err != nil {
		r.rec.Error = firstText(r.rec.Error, err.Error())
	}
	if lost > 0 {
		r.rec.Error = firstText(r.rec.Error, fmt.Sprintf("%d acknowledged writes were lost across a crash", lost))
	}
	r.values["bench.acked_lost"] += float64(lost)
}

// untracedEpisodes measures the end-to-end metrics. Each episode sets
// the system up afresh, warms it, measures an equal share of the time,
// checks it and tears it down. Every metric is computed over the whole
// of an episode's measured phase, and the run reports the median of
// the episodes.
func (r *runner) untracedEpisodes(ctx context.Context) error {
	o, rec := r.o, r.rec
	rec.Episodes, rec.Samples = map[string][]float64{}, map[string]int{}
	var phases []*phase
	var setups, heaps []float64
	defer func() {
		for _, ph := range phases {
			ph.free()
		}
	}()
	for e := 0; e < episodes; e++ {
		env, took, err := r.setup()
		if err != nil {
			return err
		}
		ph, err := r.measure(ctx, env, o.seconds/episodes, nil)
		if err != nil {
			env.close()
			return err
		}
		phases = append(phases, ph)
		setups, heaps = append(setups, took.Seconds()), append(heaps, heapInuseMiB())
		r.verify(ctx, env)
		if err := r.teardown(env); err != nil {
			return err
		}
	}

	// One tail percentile for the whole run: the highest the episode
	// with the fewest samples supports.
	ops := math.MaxInt
	for _, ph := range phases {
		counts := ph.sampleCounts()
		for name, n := range counts {
			rec.Samples[name] += n
		}
		ops = min(ops, counts["op"])
	}
	opPct := tailPercentile(ops)
	rec.TailPercentile = map[string]float64{"op_p99_us": opPct}
	for i, ph := range phases {
		m := ph.endToEnd(opPct)
		// The set-up ran seconds before the phase that gauged the host.
		m["setup_s"] = ratio(setups[i], m["host_slowdown"])
		m["heap_inuse_mb"] = heaps[i]
		for name, v := range m {
			rec.Episodes[name] = append(rec.Episodes[name], v)
		}
	}
	for _, d := range endToEnd {
		r.values[d.name] = median(rec.Episodes[d.name])
	}
	return nil
}

// tracedEpisode measures the per-layer metrics on one set-up: half
// the time untraced, for the counts and the medians the budget is set
// against; half traced, for the spans; then the probes, on the
// still-warm system.
func (r *runner) tracedEpisode(ctx context.Context) error {
	o, rec, values := r.o, r.rec, r.values
	env, _, err := r.setup()
	if err != nil {
		return err
	}
	defer env.close()
	untraced, err := r.measure(ctx, env, o.seconds/2, nil)
	if err != nil {
		return err
	}
	defer untraced.free()
	tr, err := newTracer(r.spec, r.k, o.clients, r.dir)
	if err != nil {
		return err
	}
	traced, err := r.measure(ctx, env, o.seconds-o.seconds/2, tr)
	if err != nil {
		return errors.Join(err, tr.close())
	}
	defer traced.free()
	if err := tr.close(); err != nil {
		return err
	}
	if err := tr.err(); err != nil {
		return fmt.Errorf("%s: %w", r.spec.name, err)
	}
	spans := tr.spans()
	if rec.TraceFile, err = writeTrace(o.outDir, r.spec.name, o.seed, spans); err != nil {
		return err
	}
	b := buildBudget(r.spec, spans, untraced)
	rec.Budget = &b
	values["daemon.shell_unattributed_us"] = b.UnattributedUS
	values["bench.trace_overhead_ratio"] = ratio(traced.classDist().quantileUS(0.5), b.OpP50US)

	writes := untraced.classDist(r.spec.write...)
	writePct := tailPercentile(len(writes))
	values["bench.write_p99_us"] = writes.quantileUS(writePct / 100)
	rec.TailPercentile = map[string]float64{"bench.write_p99_us": writePct}

	settle()
	counterMetrics(untraced, values)
	rmiMetrics(r.k, untraced, values)
	cmds := env.sampleCommands(256)
	if err := shellProbes(ctx, r.k, o.probes, cmds, values); err != nil {
		return fmt.Errorf("%s: %w", r.spec.name, err)
	}
	if err := calibrationProbes(r.k, o.probes, env.workers()[0], cmds, r.dir, values); err != nil {
		return fmt.Errorf("%s: %w", r.spec.name, err)
	}
	if err := env.layerMetrics(ctx, o.probes, values, untraced); err != nil {
		return fmt.Errorf("%s: %w", r.spec.name, err)
	}
	rec.Samples = untraced.sampleCounts()
	values["bench.gen_cpu_share"] = ratio(values["bench.gen_ns_per_op"]/1e3, untraced.cpuUSPerOp())
	r.verify(ctx, env)
	return nil
}

// add counts a phase's ops into the record.
func (rec *runRecord) add(ph *phase) {
	rec.Attempted += ph.ops + ph.failed
	rec.Failed += ph.failed
	rec.Error = firstText(rec.Error, errText(ph.firstErr))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func firstText(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
