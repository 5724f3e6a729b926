package daemon

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/flow"
	"ace/internal/wire"
)

// tinyFlow pins the admission controller to one data-plane slot and a
// one-deep queue with a short wait, so overload is reachable with a
// single blocked handler.
func tinyFlow() *flow.Config {
	return &flow.Config{
		InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
		QueueLen:     1,
		MaxQueueWait: 10 * time.Millisecond,
	}
}

// TestOverloadShedsWithBusyReply: once the daemon is at its
// concurrency limit with a full queue, further data-plane commands
// are answered with a retryable busy reply carrying a retry_after
// hint — they neither hang nor lose their connection.
func TestOverloadShedsWithBusyReply(t *testing.T) {
	release := make(chan struct{})
	d := startTestDaemon(t, Config{Name: "swamped", Flow: tinyFlow()}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "slow"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			<-release
			return cmdlang.OK(), nil
		})
	})
	defer close(release)

	// Occupy the single slot.
	first := dialTest(t, d)
	firstDone := make(chan error, 1)
	go func() {
		_, err := first.Call(cmdlang.New("slow"))
		firstDone <- err
	}()

	// Wait until the slow command holds its admission ticket.
	waitFor(t, func() bool { return d.Flow().Snapshot().Inflight >= 1 })

	// Each further command queues (depth 1), times out after 10ms, and
	// comes back busy on the same, still-healthy connection.
	c := dialTest(t, d)
	sawBusy := 0
	for i := 0; i < 3; i++ {
		_, err := c.Call(cmdlang.New("slow"))
		if err == nil {
			t.Fatal("command should have been shed")
		}
		if !cmdlang.IsRemoteCode(err, cmdlang.CodeBusy) {
			t.Fatalf("want busy reply, got %v", err)
		}
		var re *cmdlang.RemoteError
		if errors.As(err, &re) && re.RetryAfter > 0 {
			sawBusy++
		}
	}
	if sawBusy == 0 {
		t.Fatal("busy replies carried no retry_after hint")
	}
	if s := d.Flow().Snapshot(); s.ShedData == 0 {
		t.Fatalf("shed counter did not move: %+v", s)
	}

	release <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatalf("occupying call should complete once released: %v", err)
	}

	// The shed connection survived its busy replies and is still
	// usable now that the serial section is free again.
	if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("connection broken after busy replies: %v", err)
	}
}

// TestControlVerbsSurviveOverload: a data-plane storm that sheds most
// of its own traffic must never shed a control verb — heartbeats and
// lease renewals admit into reserved headroom.
func TestControlVerbsSurviveOverload(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "stormy", Flow: tinyFlow()}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "work"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			time.Sleep(2 * time.Millisecond)
			return cmdlang.OK(), nil
		})
	})

	stop := make(chan struct{})
	var storm sync.WaitGroup
	var stormBusy atomic.Int64
	for i := 0; i < 8; i++ {
		storm.Add(1)
		c := dialTest(t, d)
		go func() {
			defer storm.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Call(cmdlang.New("work")); err != nil {
					if !cmdlang.IsRemoteCode(err, cmdlang.CodeBusy) {
						return // daemon shutting down
					}
					stormBusy.Add(1)
				}
			}
		}()
	}

	// Heartbeats issued during the storm: all must succeed.
	hb := dialTest(t, d)
	for i := 0; i < 50; i++ {
		if _, err := hb.Call(cmdlang.New(CmdPing)); err != nil {
			t.Fatalf("heartbeat %d failed under overload: %v", i, err)
		}
	}
	close(stop)
	storm.Wait()

	s := d.Flow().Snapshot()
	if s.ShedData == 0 {
		t.Fatalf("storm never overloaded the daemon: %+v (busy seen: %d)", s, stormBusy.Load())
	}
	if s.ShedControl != 0 {
		t.Fatalf("control traffic was shed: %+v", s)
	}
}

// TestFairShareProtectsQuietPrincipal: over TLS a principal is its
// certificate's common name. One principal saturating the daemon from
// several connections must not starve another: once "quiet" waits for
// a slot, "noisy" is held to its share and its excess is shed
// fair_share instead of queueing ahead of quiet.
func TestFairShareProtectsQuietPrincipal(t *testing.T) {
	ca, err := wire.NewCA("test")
	if err != nil {
		t.Fatal(err)
	}
	transports := map[string]*wire.Transport{}
	for _, cn := range []string{"shared", "noisy", "quiet"} {
		if transports[cn], err = wire.NewTransport(ca, cn); err != nil {
			t.Fatal(err)
		}
	}
	fc := &flow.Config{
		InitialLimit: 4, MinLimit: 4, MaxLimit: 4,
		QueueLen:     2,
		MaxQueueWait: 50 * time.Millisecond,
	}
	d := startTestDaemon(t, Config{Name: "shared", Transport: transports["shared"], Flow: fc}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "work"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			time.Sleep(2 * time.Millisecond)
			return cmdlang.OK(), nil
		})
	})
	dial := func(cn string) *wire.Client {
		c, err := wire.Dial(transports[cn], d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}

	// noisy keeps more commands in flight than the limit and the queue
	// hold together.
	stop := make(chan struct{})
	var storm sync.WaitGroup
	var noisyBusy atomic.Int64
	for i := 0; i < 8; i++ {
		c := dial("noisy")
		storm.Add(1)
		go func() {
			defer storm.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Call(cmdlang.New("work")); err != nil {
					if !cmdlang.IsRemoteCode(err, cmdlang.CodeBusy) {
						return // daemon shutting down
					}
					noisyBusy.Add(1)
				}
			}
		}()
	}
	waitFor(t, func() bool { return noisyBusy.Load() > 0 })

	quiet := dial("quiet")
	for i := 0; i < 50; i++ {
		if _, err := quiet.Call(cmdlang.New("work")); err != nil {
			close(stop)
			storm.Wait()
			t.Fatalf("quiet call %d failed while noisy saturates the daemon: %v", i, err)
		}
	}
	close(stop)
	storm.Wait()
}

// TestConnectionCapSheds: connections beyond Flow.MaxConns are closed
// at accept; releasing one re-opens the door.
func TestConnectionCapSheds(t *testing.T) {
	fc := tinyFlow()
	fc.MaxConns = 2
	d := startTestDaemon(t, Config{Name: "full", Flow: fc}, nil)

	c1 := dialTest(t, d)
	c2 := dialTest(t, d)
	for _, c := range []*wire.Client{c1, c2} {
		if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
			t.Fatalf("admitted connection unusable: %v", err)
		}
	}

	// The third connection is accepted by the kernel but closed by the
	// accept loop before any reply can flow.
	c3, err := wire.Dial(nil, d.Addr())
	if err == nil {
		_, err = c3.Call(cmdlang.New(CmdPing))
		c3.Close()
	}
	if err == nil {
		t.Fatal("third connection should have been shed")
	}
	waitFor(t, func() bool { return d.Flow().Snapshot().ConnsShed >= 1 })

	// Freeing a slot lets a new connection in.
	c1.Close()
	waitFor(t, func() bool { return d.Flow().Snapshot().Conns < 2 })
	c4 := dialTest(t, d)
	if _, err := c4.Call(cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("connection after release should be admitted: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
