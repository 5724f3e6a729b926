package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/hlc"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// span is one timed interval of the traced phase. The spans of one op
// share Op; Parent is the ID of the span that caused this one, 0 for
// the root span around the client's real call.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// tracer records spans from the benchmark's side of the layer
// boundaries: a root span around about one op in traceEvery, then that
// op's layers called one at a time on the op's own inputs. Spans stay
// in memory until the run ends.
type tracer struct {
	spec  workloadSpec
	epoch time.Time
	k     *kit
	// engine is a scratch write-ahead log in the workload's own
	// directory, for replaying the append under a store write.
	engine *storage.Engine
	lsn    atomic.Uint64
	per    []*replayer
}

func newTracer(spec workloadSpec, k *kit, clients int, dir string) (*tracer, error) {
	eng, _, _, err := storage.Open(filepath.Join(dir, "trace-log"), storeOptions)
	if err != nil {
		return nil, fmt.Errorf("open scratch log: %w", err)
	}
	t := &tracer{spec: spec, epoch: time.Now(), k: k, engine: eng}
	for c := 0; c < clients; c++ {
		t.per = append(t.per, &replayer{t: t, client: c, rng: rand.New(rand.NewSource(int64(c) + 1))})
	}
	return t, nil
}

func (t *tracer) close() error {
	if err := t.engine.Close(); err != nil {
		return fmt.Errorf("close scratch log: %w", err)
	}
	return nil
}

// record wraps the op w just performed in a root span and replays its
// layers beneath it.
func (t *tracer) record(ctx context.Context, client int, w worker, res opResult) {
	r := t.per[client]
	r.op++
	root := r.add("op."+t.spec.classes[res.class], 0, res.start, res.start.Add(res.d))
	w.replay(ctx, r, root)
}

// gap draws the number of ops until client's next traced one.
func (t *tracer) gap(client int) int { return 1 + t.per[client].rng.Intn(2*traceEvery-1) }

func (t *tracer) spans() []span {
	var out []span
	for _, r := range t.per {
		out = append(out, r.spans...)
	}
	return out
}

func (t *tracer) err() error {
	for _, r := range t.per {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// replayer is one client's view of the tracer; only that client's
// goroutine uses it.
type replayer struct {
	t      *tracer
	client int
	op     int
	spans  []span
	err    error // the first failure of a replayed layer
	frame  bytes.Buffer
	rng    *rand.Rand
}

func (r *replayer) add(name string, parent int, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Name: name, Op: r.client<<32 | r.op, ID: r.client<<32 | id, Parent: parent,
		StartNS: start.Sub(r.t.epoch).Nanoseconds(), EndNS: end.Sub(r.t.epoch).Nanoseconds(),
	})
	return r.client<<32 | id
}

// span times fn as a child of parent.
func (r *replayer) span(parent int, name string, fn func() error) int {
	t0 := time.Now()
	err := fn()
	id := r.add(name, parent, t0, time.Now())
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("replay %s: %w", name, err)
	}
	return id
}

// frameRoundTrip pushes text through the wire layer's framing and back
// on buf: payload encoding, length prefix, read, header split.
func frameRoundTrip(buf *bytes.Buffer, text string) error {
	buf.Reset()
	if err := wire.WriteFrame(buf, wire.EncodePayload(telemetry.SpanContext{}, hlc.Timestamp(0), text)); err != nil {
		return err
	}
	payload, err := wire.ReadFrame(buf)
	if err != nil {
		return err
	}
	if _, _, got := wire.SplitPayload(payload); len(got) != len(text) {
		return fmt.Errorf("frame returned %d bytes of %d", len(got), len(text))
	}
	return nil
}

// exchange replays the layers one command/reply pair crosses between a
// pool and a daemon: encode, frame, the loopback itself, parse,
// admission, and the reply's way back. With dispatch, the command is
// also run through the idle twin daemon's dispatch path; that is only
// meaningful for verbs the twin handles the way the real daemon does.
func (r *replayer) exchange(ctx context.Context, parent int, req, reply *cmdlang.CmdLine, dispatch bool) {
	if req == nil || reply == nil {
		return // the op failed before it had both; it is counted as failed already
	}
	k := r.t.k
	var reqText, replyText string
	var parsed *cmdlang.CmdLine
	r.span(parent, "cmdlang.encode_req", func() error { reqText = req.String(); return nil })
	r.span(parent, "wire.frame_req", func() error { return frameRoundTrip(&r.frame, reqText) })
	r.span(parent, "cmdlang.parse_req", func() (err error) { parsed, err = cmdlang.Parse(reqText); return err })
	r.span(parent, "flow.admit", func() error { return k.admit(ctx) })
	if dispatch && parsed != nil {
		r.span(parent, "daemon.dispatch", func() error { return k.dispatch(parsed) })
	}
	r.span(parent, "cmdlang.encode_reply", func() error { replyText = reply.String(); return nil })
	r.span(parent, "wire.frame_reply", func() error { return frameRoundTrip(&r.frame, replyText) })
	r.span(parent, "cmdlang.parse_reply", func() error { _, err := cmdlang.Parse(replyText); return err })
	r.span(parent, "bench.loopback", func() error {
		return k.echo[r.client].roundTrip(len(reqText)+4, len(replyText)+4)
	})
}

// appendSpan replays the durable log append under a store write, on
// the tracer's scratch log.
func (r *replayer) appendSpan(parent int, value []byte) {
	t := r.t
	rec := storage.Record{Path: fmt.Sprintf("%s/c%d", legPrefix, r.client), Value: value, Version: t.lsn.Add(1)}
	r.span(parent, "storage.append", func() error { return t.engine.Append(rec) })
}

// classBudget splits one op class's median latency into the medians of
// its replayed layers and what they leave unexplained.
type classBudget struct {
	Ops            int                `json:"traced_ops"`
	Share          float64            `json:"share_of_ops"`
	PartsUS        map[string]float64 `json:"parts_us"`
	WithinUS       map[string]float64 `json:"within_parts_us,omitempty"`
	SumUS          float64            `json:"parts_sum_us"`
	UnattributedUS float64            `json:"daemon.shell_unattributed_us"`
	P50US          float64            `json:"untraced_op_p50_us"`
	TracedP50US    float64            `json:"traced_op_p50_us"`
}

// budget is a workload's layer budget: per op class, the named parts,
// their sum, and the remainder against the untraced median, so that
// parts + remainder = untraced p50 for every class. The remainder is
// what no benchmark-side span can split: queue hops between the
// daemon's threads, goroutine hand-offs, context copies, and for a
// quorum op the wait for the second-fastest replica.
type budget struct {
	Classes map[string]classBudget `json:"classes"`
	// UnattributedUS and WeightedP50US weigh the classes by their share
	// of the untraced ops.
	UnattributedUS float64 `json:"daemon.shell_unattributed_us"`
	WeightedP50US  float64 `json:"class_weighted_p50_us"`
	OpP50US        float64 `json:"untraced_op_p50_us"`
}

// buildBudget derives the layer budget from the traced phase's spans
// and the untraced phase's latencies.
func buildBudget(spec workloadSpec, spans []span, untraced *phase) budget {
	roots := map[int]string{} // root span ID → class
	top := map[int]string{}   // ID of a root's direct child → class
	rootUS := map[string][]float64{}
	parts := map[string]map[string][]float64{}
	within := map[string]map[string][]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			class := s.Name[len("op."):]
			roots[s.ID] = class
			rootUS[class] = append(rootUS[class], s.us())
		}
	}
	add := func(m map[string]map[string][]float64, class, name string, us float64) {
		if m[class] == nil {
			m[class] = map[string][]float64{}
		}
		m[class][name] = append(m[class][name], us)
	}
	for _, s := range spans {
		if class, ok := roots[s.Parent]; ok {
			top[s.ID] = class
			add(parts, class, s.Name, s.us())
		}
	}
	for _, s := range spans {
		if class, ok := top[s.Parent]; ok {
			add(within, class, s.Name, s.us())
		}
	}

	all := untraced.classDist()
	total := float64(len(all))
	b := budget{Classes: map[string]classBudget{}, OpP50US: all.quantileUS(0.5)}
	for k, class := range spec.classes {
		d := untraced.classDist(k)
		cb := classBudget{
			Ops:         len(rootUS[class]),
			Share:       ratio(float64(len(d)), total),
			PartsUS:     map[string]float64{},
			P50US:       d.quantileUS(0.5),
			TracedP50US: median(rootUS[class]),
		}
		for name, v := range parts[class] {
			// A part that only some ops of the class have (a miss path)
			// weighs in by how often it occurred.
			cb.PartsUS[name] = median(v) * ratio(float64(len(v)), float64(cb.Ops))
			cb.SumUS += cb.PartsUS[name]
		}
		for name, v := range within[class] {
			if cb.WithinUS == nil {
				cb.WithinUS = map[string]float64{}
			}
			cb.WithinUS[name] = median(v)
		}
		cb.UnattributedUS = cb.P50US - cb.SumUS
		b.Classes[class] = cb
		b.UnattributedUS += cb.Share * cb.UnattributedUS
		b.WeightedP50US += cb.Share * cb.P50US
	}
	return b
}

// writeTrace writes the spans of one workload's traced phase.
func writeTrace(outDir string, name string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", outDir, err)
	}
	path := filepath.Join(outDir, "trace-"+name+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, seed, spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
