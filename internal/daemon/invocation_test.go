package daemon

import (
	"context"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
)

// completion is everything an invocation leaves behind once it is
// complete; the three routes into complete must leave the same.
type completion struct {
	reply     string
	stats     Stats
	dispatchN int64
	spans     int
	spanName  string
	spanOK    bool
	detail    string
}

// TestCompletionRoutesAgree drives one verb through the three routes
// an invocation can finish by — inline on its command thread, from a
// detached handler's finish, and under ExecuteLocal — and requires the
// same counters, dispatch histogram, span and notification from each.
func TestCompletionRoutesAgree(t *testing.T) {
	routes := []struct {
		name   string
		detach bool
		local  bool
	}{
		{name: "inline"},
		{name: "detached", detach: true},
		{name: "ExecuteLocal", local: true},
	}
	var got []completion
	for _, r := range routes {
		events := make(chan *cmdlang.CmdLine, 1)
		listener := startTestDaemon(t, Config{Name: "listener"}, func(d *Daemon) {
			d.Handle(cmdlang.CommandSpec{Name: "onWork", AllowExtra: true},
				func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
					events <- c
					return nil, nil
				})
		})
		worker := startTestDaemon(t, Config{Name: "worker"}, func(d *Daemon) {
			d.Handle(cmdlang.CommandSpec{Name: "work", Args: []cmdlang.ArgSpec{{Name: "n", Kind: cmdlang.KindInt, Required: true}}},
				func(ctx *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
					reply := cmdlang.OK().SetInt("twice", 2*c.Int("n", 0))
					if r.detach {
						finish, ok := ctx.Detach()
						if !ok {
							t.Error("a command-thread invocation could not detach")
							return reply, nil
						}
						go finish(reply)
						return nil, nil
					}
					return reply, nil
				})
		})
		pool := NewPool(nil)
		t.Cleanup(pool.Close)
		if err := Subscribe(pool, worker.Addr(), "work", "listener", listener.Addr(), "onWork"); err != nil {
			t.Fatal(err)
		}

		before := worker.Stats()
		root := telemetry.NewTrace()
		cmd := cmdlang.New("work").SetInt("n", 7)
		var reply *cmdlang.CmdLine
		if r.local {
			reply = worker.ExecuteLocal(&Ctx{Principal: "anonymous", Trace: root.NewChild()}, cmd)
		} else {
			var err error
			reply, err = pool.CallContext(telemetry.WithSpanContext(context.Background(), root), worker.Addr(), cmd)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			reply.Del(cmdlang.SeqArg)
		}
		c := completion{reply: reply.String()}
		select {
		case ev := <-events:
			c.detail = ev.Str(NotifyDetailArg, "")
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: notification not delivered", r.name)
		}
		after := worker.Stats()
		c.stats = Stats{
			CommandsOK:    after.CommandsOK - before.CommandsOK,
			CommandsFail:  after.CommandsFail - before.CommandsFail,
			Denied:        after.Denied - before.Denied,
			Notifications: after.Notifications - before.Notifications,
		}
		c.dispatchN = worker.Telemetry().Histogram(MetricDispatchPrefix + "work").Count()
		spans := worker.Traces().Trace(root.TraceID)
		c.spans = len(spans)
		if len(spans) > 0 {
			c.spanName, c.spanOK = spans[0].Name, spans[0].OK
		}
		got = append(got, c)
	}

	want := completion{
		reply:     "ok twice=14;",
		stats:     Stats{CommandsOK: 1, Notifications: 1},
		dispatchN: 1,
		spans:     1,
		spanName:  "work",
		spanOK:    true,
		detail:    "work n=7;",
	}
	for i, r := range routes {
		if got[i] != want {
			t.Errorf("%s left %+v, want %+v", r.name, got[i], want)
		}
	}
}

// TestNestedExecuteLocalCannotDetachOuter: a handler running under
// ExecuteLocal from inside another handler gets ok=false from Detach,
// as Detach documents, instead of detaching the outer invocation —
// which would discard the outer handler's reply and answer the outer
// caller with the nested one's.
func TestNestedExecuteLocalCannotDetachOuter(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "nest"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "inner"}, func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			finish, ok := ctx.Detach()
			if !ok {
				return cmdlang.OK().SetWord("ran", "inline"), nil
			}
			go finish(cmdlang.OK().SetWord("ran", "detached"))
			return nil, nil
		})
		d.Handle(cmdlang.CommandSpec{Name: "outer"}, func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			inner := ctx.D.ExecuteLocal(ctx, cmdlang.New("inner"))
			return cmdlang.OK().SetWord("from", "outer").SetWord("inner", inner.Str("ran", "lost")), nil
		})
	})
	c := dialTest(t, d)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := c.CallContext(ctx, cmdlang.New("outer"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Str("from", "") != "outer" || reply.Str("inner", "") != "inline" {
		t.Fatalf("outer caller got %v, want the outer handler's reply over an inline inner run", reply)
	}
	// The inner verb on its own still detaches.
	if reply, err = c.CallContext(ctx, cmdlang.New("inner")); err != nil || reply.Str("ran", "") != "detached" {
		t.Fatalf("direct inner call: reply=%v err=%v", reply, err)
	}
}

// TestExecuteLocalSingleAllocation guards the shell's per-message
// cost: everything the shell itself needs for one command is the one
// invocation, so ExecuteLocal of ping allocates exactly one object
// more than ping's handler does building its reply.
func TestExecuteLocalSingleAllocation(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "lean"}, nil)
	ping := cmdlang.New(CmdPing)
	handler := testing.AllocsPerRun(200, func() {
		d.handlers[CmdPing].fn(nil, ping) //nolint:errcheck — ping cannot fail
	})
	shell := testing.AllocsPerRun(200, func() {
		d.ExecuteLocal(nil, ping)
	})
	if shell != handler+1 {
		t.Fatalf("ExecuteLocal(ping) allocates %v objects, the handler alone %v: the shell must add exactly 1", shell, handler)
	}
}

// TestFinishAfterStopSpawnsNoDelivery: a detached handler whose finish
// lands after Stop has begun — an ASD store write, a pstore append
// completing late — is not part of what Stop joins, so it must not
// count a delivery into the WaitGroup Stop is waiting on, nor deliver
// anything from a stopped daemon; what it drops it counts. The finish runs on a goroutine that
// learns of the stop only through its connection dying, as a real
// completion would: nothing orders it against Stop but the daemon's own
// lock.
func TestFinishAfterStopSpawnsNoDelivery(t *testing.T) {
	listener := startTestDaemon(t, Config{Name: "listener"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "onWork", AllowExtra: true},
			func(*Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
	})
	finishes := make(chan func(*cmdlang.CmdLine), 1)
	worker := startTestDaemon(t, Config{Name: "worker"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "work"},
			func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				finish, ok := ctx.Detach()
				if !ok {
					t.Error("a command-thread invocation could not detach")
					return nil, nil
				}
				finishes <- finish
				return nil, nil
			})
	})
	pool := NewPool(nil)
	t.Cleanup(pool.Close)
	if err := Subscribe(pool, worker.Addr(), "work", "listener", listener.Addr(), "onWork"); err != nil {
		t.Fatal(err)
	}

	c := dialTest(t, worker)
	called := make(chan error, 1)
	go func() {
		// Unanswered until finish; fails when Stop closes the connection.
		_, err := c.Call(cmdlang.New("work"))
		called <- err
	}()
	finish := <-finishes
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if err := <-called; err == nil {
			t.Error("call answered before its handler finished")
		}
		// Stop closes connections just before it waits: let it get there.
		time.Sleep(20 * time.Millisecond)
		finish(nil)
	}()
	worker.Stop()
	<-finished
	if n := worker.Stats().Notifications; n != 0 {
		t.Fatalf("a stopped daemon spawned %d notification deliveries", n)
	}
	if n := worker.Telemetry().Snapshot().Counter(MetricNotifyErrors); n != 1 {
		t.Fatalf("%d notification errors counted for the one delivery dropped, want 1", n)
	}
}
