package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/telemetry"
)

// The four message sizes of the call workload, after E1/E2: a bare
// liveness probe, a two-float device command, a six-field
// registration, and a device command dragging a 4 KiB string.
const (
	callBare = iota
	callControl
	callTypical
	callBlob
	callKinds
)

const blobLen = 4096

var callSpec = workloadSpec{
	name:    "call",
	classes: []string{"bare", "control", "typical", "blob4k"},
	// ping changes nothing in the daemon; register carries state to it.
	// One kind each, so that the class's median is the median of one
	// distribution and not a point between the modes of three.
	read:  []int{callBare},
	write: []int{callTypical},
	setup: setupCall,
}

// noop is the handler of the call workload's verbs: the shell does all
// the work.
func noop(*daemon.Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil }

// borrowedSpec admits any arguments under a verb another package
// declares. It is filled in field by field because acelint takes every
// CommandSpec literal for a declaration, and would have the verb table
// of docs/PROTOCOL.md name the benchmark as an owner of move and
// register; the benchmark declares no verb.
func borrowedSpec(verb string) cmdlang.CommandSpec {
	var spec cmdlang.CommandSpec
	spec.Name, spec.AllowExtra = verb, true
	return spec
}

// newShellDaemon starts a daemon whose only handlers are no-ops under
// existing verb names, with telemetry and flow at their defaults.
func newShellDaemon(name string) (*daemon.Daemon, error) {
	d := daemon.New(daemon.Config{Name: name})
	d.Handle(borrowedSpec("move"), noop)
	d.Handle(borrowedSpec(daemon.CmdRegister), noop)
	if err := d.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return d, nil
}

// callArgs are the generated arguments of one call message; the RMI
// comparison sends the same values.
type callArgs struct {
	kind      int
	pan, tilt float64
	port      int64
}

// callGen draws the call workload's messages: the four kinds in
// rotation, argument values from the seeded generator.
type callGen struct {
	rng  *rand.Rand
	blob string
	n    int
}

func newCallGen(seed int64) *callGen {
	rng := rand.New(rand.NewSource(seed))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	blob := make([]byte, blobLen)
	for i := range blob {
		blob[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return &callGen{rng: rng, blob: string(blob)}
}

func (g *callGen) next() callArgs {
	a := callArgs{
		kind: g.n % callKinds,
		pan:  float64(g.rng.Intn(36000)) / 100,
		tilt: float64(g.rng.Intn(18000))/100 - 90,
		port: int64(1024 + g.rng.Intn(60000)),
	}
	g.n++
	return a
}

// command renders a as the ACE command it stands for.
func (g *callGen) command(a callArgs) *cmdlang.CmdLine {
	switch a.kind {
	case callBare:
		return cmdlang.New(daemon.CmdPing)
	case callControl:
		return cmdlang.New("move").SetFloat("pan", a.pan).SetFloat("tilt", a.tilt)
	case callTypical:
		return cmdlang.New(daemon.CmdRegister).
			SetWord("name", "ptz_cam_1").SetWord("host", "machine25").
			SetInt("port", a.port).SetWord("room", "hawk").
			SetString("class", "Service.Device.PTZCamera.VCC3").SetInt("lease", 10000)
	default:
		return cmdlang.New("move").SetFloat("pan", a.pan).SetFloat("tilt", a.tilt).
			SetString("blob", g.blob)
	}
}

type callEnv struct {
	d  *daemon.Daemon
	ws []*callWorker
}

func setupCall(cfg runConfig) (environment, error) {
	d, err := newShellDaemon("bench_call")
	if err != nil {
		return nil, err
	}
	e := &callEnv{d: d}
	for i := 0; i < cfg.clients; i++ {
		w := &callWorker{
			pool: daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry(), Seed: cfg.seed + int64(i)}),
			addr: d.Addr(),
			gen:  newCallGen(cfg.seed*1000 + int64(i)),
		}
		e.ws = append(e.ws, w)
		// Dial now, so the first measured op does not pay the connect.
		if _, err := w.pool.Call(w.addr, cmdlang.New(daemon.CmdPing)); err != nil {
			e.close()
			return nil, fmt.Errorf("call: first ping: %w", err)
		}
	}
	return e, nil
}

func (e *callEnv) workers() []worker {
	out := make([]worker, len(e.ws))
	for i, w := range e.ws {
		out[i] = w
	}
	return out
}

func (e *callEnv) clientRegistries() []*telemetry.Registry {
	out := make([]*telemetry.Registry, len(e.ws))
	for i, w := range e.ws {
		out[i] = w.pool.Telemetry()
	}
	return out
}

func (e *callEnv) serverRegistries() []*telemetry.Registry {
	return []*telemetry.Registry{e.d.Telemetry()}
}

func (e *callEnv) sampleCommands(n int) []*cmdlang.CmdLine {
	g := newCallGen(int64(n))
	out := make([]*cmdlang.CmdLine, n)
	for i := range out {
		out[i] = g.command(g.next())
	}
	return out
}

func (e *callEnv) layerMetrics(_ context.Context, _ probeSizes, m map[string]float64, ph *phase) error {
	for k, name := range callSpec.classes {
		m["daemon.call_p50_us."+name] = ph.classDist(k).quantileUS(0.5)
	}
	return nil
}

func (e *callEnv) verify(context.Context, map[string]float64) (int, error) { return 0, nil }

func (e *callEnv) close() {
	for _, w := range e.ws {
		w.pool.Close()
	}
	e.d.Stop()
}

// checkCallReply verifies one reply of the no-op daemon: it must be ok.
func checkCallReply(req, reply *cmdlang.CmdLine) error {
	if !cmdlang.IsOK(reply) {
		return fmt.Errorf("call: %s answered %q, want ok", req.Name(), reply.Name())
	}
	return nil
}

type callWorker struct {
	pool *daemon.Pool
	addr string
	gen  *callGen
	// req and reply are the last op's command and answer, for replay.
	req, reply *cmdlang.CmdLine
}

func (w *callWorker) step(ctx context.Context) opResult {
	a := w.gen.next()
	req := w.gen.command(a)
	t0 := time.Now()
	reply, err := w.pool.CallContext(ctx, w.addr, req)
	d := time.Since(t0)
	if err == nil {
		err = checkCallReply(req, reply)
	}
	w.req, w.reply = req, reply
	return opResult{class: a.kind, start: t0, d: d, err: err}
}

func (w *callWorker) generate() { sink = w.gen.command(w.gen.next()) }

func (w *callWorker) replay(ctx context.Context, r *replayer, root int) {
	r.exchange(ctx, root, w.req, w.reply, true)
}
