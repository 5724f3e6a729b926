package ace

// Distributed telemetry integration test: one traced command entering
// an application daemon fans out through the ASD and the persistent
// store quorum, and the spans recorded by every daemon assemble —
// over the wire, through the `telemetry` command — into a single
// correctly parented trace. The same topology proves that metrics
// from all four instrumented layers (wire, daemon shell, asd, pstore)
// are live and queryable.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
	"ace/internal/pstore"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// fetchSpans collects the spans a daemon recorded for traceID via its
// telemetry command — the same path acectl's trace subcommand uses.
func fetchSpans(t *testing.T, pool *daemon.Pool, addr string, traceID uint64) []telemetry.Span {
	t.Helper()
	reply, err := pool.Call(addr, cmdlang.New(daemon.CmdTelemetry).
		SetWord("op", "trace").
		SetString("id", telemetry.FormatID(traceID)))
	if err != nil {
		t.Fatalf("telemetry trace from %s: %v", addr, err)
	}
	spans, err := telemetry.DecodeSpans(reply)
	if err != nil {
		t.Fatalf("decode spans from %s: %v", addr, err)
	}
	return spans
}

// fetchSnapshot queries a daemon's metrics over the wire.
func fetchSnapshot(t *testing.T, pool *daemon.Pool, addr string) *telemetry.Snapshot {
	t.Helper()
	reply, err := pool.Call(addr, cmdlang.New(daemon.CmdTelemetry).SetWord("op", "metrics"))
	if err != nil {
		t.Fatalf("telemetry metrics from %s: %v", addr, err)
	}
	snap, err := telemetry.DecodeSnapshot(reply)
	if err != nil {
		t.Fatalf("decode snapshot from %s: %v", addr, err)
	}
	return snap
}

func TestDistributedTraceAcrossDaemons(t *testing.T) {
	// ── Topology: ASD, a 3-node store registered with it, and an ───
	// ── application daemon whose "save" command spans all of them ──
	dir := asd.New(asd.Config{})
	if err := dir.Start(); err != nil {
		t.Fatal(err)
	}
	defer dir.Stop()

	var nodes []*pstore.Node
	for i := 1; i <= 3; i++ {
		n, err := pstore.NewNode(pstore.Config{
			Daemon: daemon.Config{Name: fmt.Sprintf("pstore%d", i), ASDAddr: dir.Addr()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
	}

	app := daemon.New(daemon.Config{Name: "archivist", ASDAddr: dir.Addr()})
	app.Handle(cmdlang.CommandSpec{
		Name: "save",
		Doc:  "archive a value into the persistent store",
		Args: []cmdlang.ArgSpec{
			{Name: "path", Kind: cmdlang.KindString, Required: true},
			{Name: "value", Kind: cmdlang.KindString, Required: true},
		},
	}, func(ctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		tctx := ctx.TraceContext()
		// Resolve the store replicas through the ASD — a traced
		// cross-daemon call of its own.
		lookup, err := ctx.D.Pool().CallContext(tctx, dir.Addr(),
			cmdlang.New(daemon.CmdLookup).SetString("class", hier.ClassDatabase))
		if err != nil {
			return nil, err
		}
		store := pstore.NewClient(ctx.D.Pool(), lookup.Strings("addrs"))
		version, err := store.PutContext(tctx, c.Str("path", ""), []byte(c.Str("value", "")))
		if err != nil {
			return nil, err
		}
		return cmdlang.OK().SetInt("version", int64(version)), nil
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	// ── Origin: a traced client call, as acectl -trace issues it ───
	client, err := wire.Dial(nil, app.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	root := telemetry.NewTrace()
	ctx := telemetry.WithSpanContext(context.Background(), root)
	reply, err := client.CallContext(ctx, cmdlang.New("save").
		SetString("path", "/wss/workspaces/john_doe/1").
		SetString("value", "6a6f686e"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Int("version", 0) <= 0 {
		t.Fatalf("save version = %d, want the write's stamp", reply.Int("version", 0))
	}

	// ── Assemble the trace from every daemon over the wire ─────────
	pool := daemon.NewPool(nil)
	defer pool.Close()
	addrs := []string{app.Addr(), dir.Addr()}
	for _, n := range nodes {
		addrs = append(addrs, n.Addr())
	}
	var spans []telemetry.Span
	wrote := "" // a store node that recorded the write
	for _, a := range addrs {
		got := fetchSpans(t, pool, a, root.TraceID)
		for _, sp := range got {
			if sp.Name == "psput" {
				wrote = a
			}
		}
		spans = append(spans, got...)
	}
	byID := make(map[uint64]telemetry.Span, len(spans))
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Fatalf("span %+v belongs to a foreign trace", s)
		}
		if _, dup := byID[s.SpanID]; dup {
			t.Fatalf("duplicate span id %x", s.SpanID)
		}
		byID[s.SpanID] = s
	}

	// Exactly one span hangs off the origin: the archivist's "save".
	var save telemetry.Span
	roots := 0
	for _, s := range spans {
		if s.Parent == root.SpanID {
			roots++
			save = s
		}
	}
	if roots != 1 {
		t.Fatalf("%d spans parented at the origin, want exactly 1", roots)
	}
	if save.Name != "save" || save.Service != "archivist" || !save.OK {
		t.Fatalf("origin child span = %+v", save)
	}
	// Every other span is a direct child of the save span: 1 ASD
	// lookup and, per store node, at most one write (psput) — the
	// save is one round, and no node is asked for a version first. The
	// fan-out decides at a majority and cancels its straggler, whose
	// span may therefore never exist.
	legs := map[string]int{}
	for _, s := range spans {
		if s.SpanID == save.SpanID {
			continue
		}
		if s.Parent != save.SpanID {
			t.Fatalf("span %+v not parented at the save span %x", s, save.SpanID)
		}
		if !s.OK {
			t.Fatalf("span %+v failed", s)
		}
		legs[s.Service+":"+s.Name]++
	}
	if legs["asd:lookup"] != 1 {
		t.Fatalf("asd lookup spans = %d, want 1 (%v)", legs["asd:lookup"], legs)
	}
	delete(legs, "asd:lookup")
	puts := 0
	for i := range nodes {
		key := fmt.Sprintf("pstore%d:psput", i+1)
		if legs[key] > 1 {
			t.Fatalf("%d %s spans, want at most 1 (%v)", legs[key], key, legs)
		}
		puts += legs[key]
		delete(legs, key)
	}
	if puts < 2 {
		t.Fatalf("psput spans on %d store nodes, want a majority of 3 (%v)", puts, legs)
	}
	if len(legs) != 0 { // a psfetch among them would be the version probe back
		t.Fatalf("unexpected spans in the trace: %v", legs)
	}

	// ── Metrics: every instrumented layer answers with live data ───
	appSnap := fetchSnapshot(t, pool, app.Addr())
	if appSnap.Counter(wire.MetricFramesRecv) == 0 || appSnap.Counter(wire.MetricFramesSent) == 0 {
		t.Fatal("app daemon wire counters empty")
	}
	if h, ok := appSnap.Histogram(daemon.MetricDispatchPrefix + "save"); !ok || h.Count == 0 {
		t.Fatal("app daemon dispatch histogram for save empty")
	}
	if h, ok := appSnap.Histogram(wire.MetricCallLatency); !ok || h.Count == 0 {
		t.Fatal("app daemon outgoing call latency empty")
	}
	if h, ok := appSnap.Histogram(pstore.MetricWriteLatency); !ok || h.Count == 0 {
		t.Fatal("pstore quorum write latency empty in app registry")
	}

	asdSnap := fetchSnapshot(t, pool, dir.Addr())
	if asdSnap.Counter(asd.MetricRegistrations) < 4 {
		// Three store nodes and the archivist registered.
		t.Fatalf("asd registrations = %d, want >= 4", asdSnap.Counter(asd.MetricRegistrations))
	}
	if h, ok := asdSnap.Histogram(asd.MetricLookupLatency); !ok || h.Count == 0 {
		t.Fatal("asd lookup latency empty")
	}

	nodeSnap := fetchSnapshot(t, pool, wrote)
	if nodeSnap.Counter(pstore.MetricWritesApplied) == 0 {
		t.Fatal("pstore node writes-applied counter empty")
	}
	if h, ok := nodeSnap.Histogram(daemon.MetricDispatchPrefix + "psput"); !ok || h.Count == 0 {
		t.Fatal("pstore node psput dispatch histogram empty")
	}
}

// TestTraceSurvivesNotificationFanout: a notification triggered by a
// traced command carries the trace onto the listener, so the fan-out
// leg shows up in the assembled trace too.
func TestTraceSurvivesNotificationFanout(t *testing.T) {
	source := daemon.New(daemon.Config{Name: "talker"})
	source.Handle(cmdlang.CommandSpec{Name: "announce"}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return nil, nil
	})
	if err := source.Start(); err != nil {
		t.Fatal(err)
	}
	defer source.Stop()

	heard := make(chan struct{}, 1)
	listener := daemon.New(daemon.Config{Name: "listener"})
	listener.Handle(cmdlang.CommandSpec{Name: "onAnnounce", Args: []cmdlang.ArgSpec{
		{Name: daemon.NotifySourceArg, Kind: cmdlang.KindWord},
		{Name: daemon.NotifyEventArg, Kind: cmdlang.KindWord},
		{Name: daemon.NotifyDetailArg, Kind: cmdlang.KindString},
	}}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		select {
		case heard <- struct{}{}:
		default:
		}
		return nil, nil
	})
	if err := listener.Start(); err != nil {
		t.Fatal(err)
	}
	defer listener.Stop()

	pool := daemon.NewPool(nil)
	defer pool.Close()
	if err := daemon.Subscribe(pool, source.Addr(), "announce", "listener", listener.Addr(), "onAnnounce"); err != nil {
		t.Fatal(err)
	}

	root := telemetry.NewTrace()
	ctx := telemetry.WithSpanContext(context.Background(), root)
	if _, err := pool.CallContext(ctx, source.Addr(), cmdlang.New("announce")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-heard:
	case <-time.After(5 * time.Second):
		t.Fatal("notification never arrived")
	}

	// The listener records its onAnnounce span under the same trace,
	// parented at the announce span the source recorded.
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := listener.Traces().Trace(root.TraceID)
		if len(spans) == 1 {
			srcSpans := source.Traces().Trace(root.TraceID)
			if len(srcSpans) != 1 {
				t.Fatalf("source recorded %d spans, want 1", len(srcSpans))
			}
			if spans[0].Parent != srcSpans[0].SpanID {
				t.Fatalf("notification span %+v not parented at announce span %x", spans[0], srcSpans[0].SpanID)
			}
			if spans[0].Name != "onAnnounce" {
				t.Fatalf("notification span = %+v", spans[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener never recorded the notification span; have %d", len(spans))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
