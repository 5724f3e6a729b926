package daemon

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/wire"
)

// TestSerialSectionNoOverlapInOrder: eight connections drive one
// handler at once — four wire.Clients each shared by eight callers and
// four raw connections writing pipelined one-way frames — and no two
// invocations ever overlap, while each raw connection's commands
// execute in the order they were sent. The handler keeps its per-
// connection order in a plain map: under -race, any two invocations
// the serial section failed to order would also be reported there.
func TestSerialSectionNoOverlapInOrder(t *testing.T) {
	const (
		clients, callers, calls = 4, 8, 25
		raws, frames            = 4, 100
	)
	var inflight, overlaps atomic.Int64
	last := map[int64]int64{} // raw connection → last index executed
	var disorder []string
	rawDone := make(chan struct{}, raws*frames)
	d := startTestDaemon(t, Config{Name: "serial"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "step", AllowExtra: true}, func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			if inflight.Add(1) > 1 {
				overlaps.Add(1)
			}
			defer inflight.Add(-1)
			time.Sleep(10 * time.Microsecond) // widen the window an overlap would need
			if conn, ok := c.Get("conn"); ok {
				k, _ := conn.AsInt()
				i := c.Int("i", -1)
				if prev, seen := last[k]; (seen && i != prev+1) || (!seen && i != 0) {
					disorder = append(disorder, c.String())
				}
				last[k] = i
				rawDone <- struct{}{}
			}
			return nil, nil
		})
	})

	var wg sync.WaitGroup
	errs := make(chan error, clients*callers+raws) // one per sending goroutine
	for range clients {
		c := dialTest(t, d)
		for range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range calls {
					if _, err := c.Call(cmdlang.New("step")); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	for k := range raws {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range frames {
				if _, err := wire.WriteCmd(conn, cmdlang.New("step").SetInt("conn", int64(k)).SetInt("i", int64(i))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	timeout := time.After(10 * time.Second)
	for range raws * frames {
		select {
		case <-rawDone:
		case <-timeout:
			t.Fatal("raw one-way frames never all executed")
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d invocations overlapped another", n)
	}
	// The last rawDone send happens-before this read of disorder.
	if len(disorder) > 0 {
		t.Fatalf("%d raw commands executed out of send order, first: %s", len(disorder), disorder[0])
	}
}

// TestSerialSectionFreedByDetach: a handler that detached does not hold
// the serial section while its finish is pending — the next command,
// even one on the same connection, executes and is answered first.
func TestSerialSectionFreedByDetach(t *testing.T) {
	finishes := make(chan Detached, 1)
	d := startTestDaemon(t, Config{Name: "detacher"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "hold"}, func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			finish, ok := ctx.Detach()
			if !ok {
				t.Error("a command-thread invocation could not detach")
				return nil, nil
			}
			finishes <- finish
			return nil, nil
		})
	})
	c := dialTest(t, d)
	held := make(chan error, 1)
	go func() {
		_, err := c.Call(cmdlang.New("hold"))
		held <- err
	}()
	finish := <-finishes
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.CallContext(ctx, cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("ping behind a pending detached finish: %v", err)
	}
	select {
	case err := <-held:
		t.Fatalf("detached call answered before its finish: %v", err)
	default:
	}
	finish.Finish(cmdlang.OK())
	if err := <-held; err != nil {
		t.Fatalf("detached call after finish: %v", err)
	}
}

// TestSerialSectionSkippedAfterStop: a command admitted and waiting
// for the serial section when Stop begins is not executed, and its
// admission ticket is released — flow's in-flight count returns to 0.
func TestSerialSectionSkippedAfterStop(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var probes atomic.Int64
	d := New(Config{Name: "stopping"})
	d.Handle(cmdlang.CommandSpec{Name: "block"}, func(*Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		close(entered)
		<-release
		return nil, nil
	})
	d.Handle(cmdlang.CommandSpec{Name: "probe"}, func(*Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		probes.Add(1)
		return nil, nil
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	send := func(verb string) {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := wire.WriteCmd(conn, cmdlang.New(verb)); err != nil {
			t.Fatal(err)
		}
	}
	send("block")
	<-entered // block holds the section
	send("probe")
	waitFor(t, func() bool { return d.Flow().Snapshot().Inflight == 2 }) // probe is admitted and waits

	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		d.Stop()
	}()
	<-d.done
	close(release)
	<-stopped
	if n := probes.Load(); n != 0 {
		t.Fatalf("a command waiting for the section ran %d times after Stop began", n)
	}
	if s := d.Flow().Snapshot(); s.Inflight != 0 {
		t.Fatalf("flow in-flight %d after Stop, want 0", s.Inflight)
	}
}
