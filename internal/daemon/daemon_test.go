package daemon

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// startTestDaemon starts a plaintext daemon with no infrastructure
// registration and cleans it up with the test.
func startTestDaemon(t *testing.T, cfg Config, setup func(*Daemon)) *Daemon {
	t.Helper()
	d := New(cfg)
	if setup != nil {
		setup(d)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

func dialTest(t *testing.T, d *Daemon) *wire.Client {
	t.Helper()
	c, err := wire.Dial(nil, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBuiltinPingInfoCommands(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "cam1", Class: "Service.Device.PTZCamera", Room: "hawk", Host: "bar"}, nil)
	c := dialTest(t, d)

	reply, err := c.Call(cmdlang.New(CmdPing))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Str("service", "") != "cam1" {
		t.Fatalf("ping reply=%v", reply)
	}

	info, err := c.Call(cmdlang.New(CmdInfo))
	if err != nil {
		t.Fatal(err)
	}
	if info.Str("room", "") != "hawk" || info.Str("class", "") != "Service.Device.PTZCamera" {
		t.Fatalf("info=%v", info)
	}
	if info.Int("port", 0) != int64(d.Port()) {
		t.Fatalf("port=%d want %d", info.Int("port", 0), d.Port())
	}

	cmds, err := c.Call(cmdlang.New(CmdCommands))
	if err != nil {
		t.Fatal(err)
	}
	names := cmds.Strings("names")
	joined := strings.Join(names, ",")
	for _, want := range []string{CmdPing, CmdInfo, CmdAddNotification} {
		if !strings.Contains(joined, want) {
			t.Errorf("commands missing %s: %v", want, names)
		}
	}
}

func TestHandlerDispatchAndValidation(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "ptz"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{
			Name: "move",
			Args: []cmdlang.ArgSpec{
				{Name: "x", Kind: cmdlang.KindFloat, Required: true},
				{Name: "y", Kind: cmdlang.KindFloat, Required: true},
			},
		}, func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.OK().SetFloat("sum", c.Float("x", 0)+c.Float("y", 0)), nil
		})
	})
	c := dialTest(t, d)

	reply, err := c.Call(cmdlang.New("move").SetFloat("x", 2).SetFloat("y", 3))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Float("sum", 0) != 5 {
		t.Fatalf("sum=%v", reply)
	}

	// Unknown command.
	_, err = c.Call(cmdlang.New("fly"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeUnknownCommand) {
		t.Fatalf("err=%v", err)
	}
	// Missing required argument → semantic failure.
	_, err = c.Call(cmdlang.New("move").SetFloat("x", 2))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeBadArgument) {
		t.Fatalf("err=%v", err)
	}
	// Undeclared argument rejected.
	_, err = c.Call(cmdlang.New("move").SetFloat("x", 1).SetFloat("y", 1).SetInt("warp", 9))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeBadArgument) {
		t.Fatalf("err=%v", err)
	}
}

func TestHandlerErrorBecomesFail(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "err"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "boom"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return nil, errors.New("kaboom")
		})
	})
	c := dialTest(t, d)
	_, err := c.Call(cmdlang.New("boom"))
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err=%v", err)
	}
	if got := d.Telemetry().Counter(MetricCommandsFail).Value(); got == 0 {
		t.Fatal("fail counter not incremented")
	}
}

// TestHandleRejectsDuplicateAndReservedVerbs pins the registration
// rules: a verb gets one handler, a service cannot shadow a built-in
// or a reply verb, and a name must be a cmdlang word. Each bad Handle
// panics at construction rather than silently replacing a handler.
func TestHandleRejectsDuplicateAndReservedVerbs(t *testing.T) {
	h := func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return cmdlang.OK(), nil }
	d := New(Config{Name: "reg"})
	d.Handle(cmdlang.CommandSpec{Name: "play"}, h)
	d.Handle(cmdlang.CommandSpec{Name: "status"}, h)

	for _, tc := range []struct {
		name string
		spec cmdlang.CommandSpec
		want string
	}{
		{"duplicate", cmdlang.CommandSpec{Name: "play"}, `"play" already has a handler`},
		{"builtin", cmdlang.CommandSpec{Name: CmdPing}, `"ping" already has a handler`},
		{"reply ok", cmdlang.CommandSpec{Name: "ok"}, `"ok" is a reply`},
		{"reply fail", cmdlang.CommandSpec{Name: "fail"}, `"fail" is a reply`},
		{"nameless", cmdlang.CommandSpec{Doc: "nameless"}, "not a word"},
		{"space", cmdlang.CommandSpec{Name: "bad verb"}, "not a word"},
		{"leading digit", cmdlang.CommandSpec{Name: "9lives"}, "not a word"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("Handle(%q) panic = %v, want one containing %s", tc.spec.Name, r, tc.want)
				}
			}()
			d.Handle(tc.spec, h)
		})
	}
	if !d.handlers[CmdPing].builtin {
		t.Fatal("the built-in ping handler was replaced")
	}
}

func TestMalformedSyntaxAnsweredByCommandThread(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "p"}, nil)
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, []byte("this is ;;; not a command")); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadCmd(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !cmdlang.IsFail(reply) {
		t.Fatalf("reply=%v", reply)
	}
}

type denyAll struct{}

func (denyAll) Authorize(principal string, cmd *cmdlang.CmdLine) error {
	return fmt.Errorf("principal %s may not %s", principal, cmd.Name())
}

func TestAuthorizerGate(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "locked", Authorizer: denyAll{}}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "secret"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return nil, nil
		})
	})
	c := dialTest(t, d)

	// Built-ins bypass the gate.
	if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("ping denied: %v", err)
	}
	// Service commands are gated.
	_, err := c.Call(cmdlang.New("secret"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeDenied) {
		t.Fatalf("err=%v", err)
	}
	if n := d.Telemetry().Counter(MetricDenied).Value(); n != 1 {
		t.Fatalf("denied counter=%d", n)
	}
}

func TestTLSPrincipalReachesHandler(t *testing.T) {
	ca, err := wire.NewCA("test")
	if err != nil {
		t.Fatal(err)
	}
	serverT, err := wire.NewTransport(ca, "vault")
	if err != nil {
		t.Fatal(err)
	}
	clientT, err := wire.NewTransport(ca, "john_doe")
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	d := startTestDaemon(t, Config{Name: "vault", Transport: serverT}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "whoami"}, func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			got <- ctx.Principal
			return nil, nil
		})
	})

	c, err := wire.Dial(clientT, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New("whoami")); err != nil {
		t.Fatal(err)
	}
	if p := <-got; p != "john_doe" {
		t.Fatalf("principal=%q", p)
	}
}

// TestStopAfterFailedStart: Stop after a Start that could not open its
// command port returns at once.
func TestStopAfterFailedStart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := New(Config{Name: "late", Listen: ln.Addr().String()})
	if err := d.Start(); err == nil {
		t.Fatalf("Start on held port %s: no error", ln.Addr())
	}
	d.Stop()
}

func TestNotificationsFig8(t *testing.T) {
	// The notifying service: a camera whose "move" command is being
	// listened for.
	camera := startTestDaemon(t, Config{Name: "cam"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "move", AllowExtra: true},
			func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
	})

	// The notified service: a tracker exposing a command-interface
	// method "onCameraMoved".
	events := make(chan *cmdlang.CmdLine, 4)
	tracker := startTestDaemon(t, Config{Name: "tracker"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "onCameraMoved", AllowExtra: true},
			func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				events <- c
				return nil, nil
			})
	})

	// Step 0: the tracker subscribes.
	pool := NewPool(nil)
	defer pool.Close()
	if err := Subscribe(pool, camera.Addr(), "move", "tracker", tracker.Addr(), "onCameraMoved"); err != nil {
		t.Fatal(err)
	}

	// Step 1: a client issues the command.
	c := dialTest(t, camera)
	if _, err := c.Call(cmdlang.New("move").SetInt("x", 9)); err != nil {
		t.Fatal(err)
	}

	// Step 3: the tracker's method is invoked.
	select {
	case ev := <-events:
		if ev.Str(NotifySourceArg, "") != "cam" || ev.Str(NotifyEventArg, "") != "move" {
			t.Fatalf("event=%v", ev)
		}
		if !strings.Contains(ev.Str(NotifyDetailArg, ""), "x=9") {
			t.Fatalf("detail=%q", ev.Str(NotifyDetailArg, ""))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification not delivered")
	}

	// A failed command must NOT notify.
	if _, err := c.Call(cmdlang.New("noSuchCommand")); err == nil {
		t.Fatal("expected failure")
	}
	select {
	case ev := <-events:
		t.Fatalf("unexpected notification %v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	// Unsubscribe stops delivery.
	if _, err := pool.Call(camera.Addr(), cmdlang.New(CmdRemoveNotification).
		SetWord("cmd", "move").SetWord("service", "tracker").SetWord("method", "onCameraMoved")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(cmdlang.New("move").SetInt("x", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("notification after removal: %v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestNotificationFanout(t *testing.T) {
	source := startTestDaemon(t, Config{Name: "src"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "tick"},
			func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
	})

	const n = 8
	var mu sync.Mutex
	hits := map[string]int{}
	var listeners []*Daemon
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("listener%d", i)
		l := startTestDaemon(t, Config{Name: name}, func(d *Daemon) {
			d.Handle(cmdlang.CommandSpec{Name: "onTick", AllowExtra: true},
				func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
					mu.Lock()
					hits[d.Name()]++
					mu.Unlock()
					return nil, nil
				})
		})
		listeners = append(listeners, l)
	}

	pool := NewPool(nil)
	defer pool.Close()
	for _, l := range listeners {
		if err := Subscribe(pool, source.Addr(), "tick", l.Name(), l.Addr(), "onTick"); err != nil {
			t.Fatal(err)
		}
	}
	c := dialTest(t, source)
	if _, err := c.Call(cmdlang.New("tick")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		total := len(hits)
		mu.Unlock()
		if total == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d listeners notified", total, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := source.Telemetry().Counter(MetricNotifySent).Value(); got != n {
		t.Fatalf("notification counter=%d want %d", got, n)
	}
}

func TestDuplicateSubscriptionIdempotent(t *testing.T) {
	var tab notifyTable
	nt := notifyTarget{Service: "s", Addr: "a", Method: "m"}
	tab.add("x", nt)
	tab.add("x", nt)
	if got := len(tab.list("x")); got != 1 {
		t.Fatalf("targets=%d", got)
	}
	if removed := tab.remove("x", "s", "m"); removed != 1 {
		t.Fatalf("removed=%d", removed)
	}
	if got := len(tab.list("")); got != 0 {
		t.Fatalf("leftover=%d", got)
	}
}

func TestOneWayCommandNoReply(t *testing.T) {
	ran := make(chan struct{}, 1)
	d := startTestDaemon(t, Config{Name: "oneway"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "fire"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			ran <- struct{}{}
			return nil, nil
		})
	})
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// No seq argument → executed, never answered.
	if _, err := wire.WriteCmd(conn, cmdlang.New("fire")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("one-way command not executed")
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("one-way command got a reply")
	}
}

func TestDataThread(t *testing.T) {
	got := make(chan []byte, 1)
	recv := startTestDaemon(t, Config{Name: "sink", DataHandler: func(pkt []byte, _ net.Addr) {
		got <- pkt
	}}, nil)
	send := startTestDaemon(t, Config{Name: "source"}, nil)

	if err := send.SendData(recv.DataAddr(), []byte("pcm-frame-0001")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if string(pkt) != "pcm-frame-0001" {
			t.Fatalf("pkt=%q", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
	if n := recv.Telemetry().Counter(MetricDataPackets).Value(); n != 1 {
		t.Fatalf("data counter=%d", n)
	}
}

func TestStopIsIdempotentAndRejectsDoubleStart(t *testing.T) {
	d := New(Config{Name: "once"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	d.Stop()
	d.Stop() // must not panic or hang
}

func TestStatsCounters(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "counted"}, nil)
	c := dialTest(t, d)
	for i := 0; i < 5; i++ {
		if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
			t.Fatal(err)
		}
	}
	c.Call(cmdlang.New("junkcmd")) //nolint:errcheck
	reply, err := c.Call(cmdlang.New(CmdTelemetry).SetWord("op", "metrics"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := telemetry.DecodeSnapshot(reply)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counter(MetricCommandsOK) < 5 || snap.Counter(MetricCommandsFail) != 1 {
		t.Fatalf("metrics=%v", reply)
	}
}
