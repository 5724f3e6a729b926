package daemon

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/wire"
)

// asdStub is a minimal directory: it accepts register/unregister and
// fails renew for unknown names, which is all the lease loop needs.
type asdStub struct {
	*Daemon
	mu         sync.Mutex
	registered map[string]int
}

func (s *asdStub) count(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registered[name]
}

func newASDStub(t *testing.T, listen string) *asdStub {
	t.Helper()
	s := &asdStub{registered: map[string]int{}}
	d := New(Config{Name: "asdstub", Listen: listen})
	d.Handle(cmdlang.CommandSpec{Name: CmdRegister, AllowExtra: true},
		func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			s.mu.Lock()
			s.registered[c.Str("name", "")]++
			s.mu.Unlock()
			return cmdlang.OK().SetInt("lease", c.Int("lease", 1000)), nil
		})
	d.Handle(cmdlang.CommandSpec{Name: CmdRenew, AllowExtra: true},
		func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			if s.count(c.Str("name", "")) == 0 {
				return cmdlang.Fail(cmdlang.CodeNotFound, "not registered"), nil
			}
			return cmdlang.OK().SetInt("lease", c.Int("lease", 1000)), nil
		})
	d.Handle(cmdlang.CommandSpec{Name: CmdUnregister, AllowExtra: true},
		func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			s.mu.Lock()
			delete(s.registered, c.Str("name", ""))
			s.mu.Unlock()
			return nil, nil
		})
	s.Daemon = d
	return s
}

// TestReRegistersAfterDirectoryRestart: a daemon whose directory
// forgot it (ASD crash/restart) re-registers on the next lease tick.
func TestReRegistersAfterDirectoryRestart(t *testing.T) {
	stub := newASDStub(t, "127.0.0.1:0")
	if err := stub.Start(); err != nil {
		t.Fatal(err)
	}
	addr := stub.Addr()

	d := New(Config{Name: "phoenix", ASDAddr: addr, LeaseTTL: 60 * time.Millisecond})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if stub.count("phoenix") != 1 {
		t.Fatalf("initial registrations=%d", stub.count("phoenix"))
	}

	// The directory restarts empty at the SAME address.
	stub.Stop()
	stub2 := newASDStub(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := stub2.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not rebind stub address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(stub2.Stop)

	// The daemon's renewals now get not_found → it re-registers.
	deadline = time.Now().Add(5 * time.Second)
	for stub2.count("phoenix") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never re-registered with the restarted directory")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolRedialsAfterServerRestart: a pooled connection that dies is
// transparently replaced on the next Call.
func TestPoolRedialsAfterServerRestart(t *testing.T) {
	d := New(Config{Name: "flappy", Listen: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()

	pool := NewPool(nil)
	defer pool.Close()
	if _, err := pool.Call(addr, cmdlang.New(CmdPing)); err != nil {
		t.Fatal(err)
	}

	// Restart the daemon on the same address.
	d.Stop()
	d2 := New(Config{Name: "flappy", Listen: addr})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := d2.Start(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not rebind")
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(d2.Stop)

	// The pool's cached connection is dead; Call retries on a fresh
	// one.
	if _, err := pool.Call(addr, cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("pool did not recover: %v", err)
	}
}

// TestOversizedFrameDropsConnectionGracefully: a client claiming an
// absurd frame size is disconnected without harming the daemon.
func TestOversizedFrameDropsConnectionGracefully(t *testing.T) {
	d := New(Config{Name: "hardened"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header advertising 4 GiB.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Log("daemon answered; acceptable as long as it stays alive")
	}

	// The daemon still serves other clients.
	c, err := wire.Dial(nil, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("daemon damaged by oversized frame: %v", err)
	}
}

// TestOneWayFloodExecutesInOrder: 500 one-way commands written back to
// back on one connection all execute, in the order sent, and nothing
// deadlocks. There is no queue between reading and executing: the
// command thread reads the next frame once the last has executed, so
// a sender that outruns the daemon is held back by TCP alone.
func TestOneWayFloodExecutesInOrder(t *testing.T) {
	const n = 500
	executed := make(chan int64, n)
	d := startTestDaemon(t, Config{Name: "flooded"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "flood", Args: []cmdlang.ArgSpec{{Name: "i", Kind: cmdlang.KindInt, Required: true}}},
			func(_ *Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				executed <- c.Int("i", -1)
				return nil, nil
			})
	})

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < n; i++ {
		if _, err := wire.WriteCmd(conn, cmdlang.New("flood").SetInt("i", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(5 * time.Second)
	for want := int64(0); want < n; want++ {
		select {
		case got := <-executed:
			if got != want {
				t.Fatalf("command %d executed where %d was sent", got, want)
			}
		case <-timeout:
			t.Fatalf("executed %d/%d", want, n)
		}
	}
}

// TestStalledReaderCannotDelayOtherClients: a client that asks for more
// reply bytes than the socket buffers hold and never reads them costs
// only its own connection. Its reply is written outside the serial
// section, so while that write is blocked — for up to one call timeout,
// after which the connection is closed — another client's ping is
// answered in well under the timeout.
func TestStalledReaderCannotDelayOtherClients(t *testing.T) {
	const callTimeout = 2 * time.Second
	blob := strings.Repeat("x", 512<<10)
	var served atomic.Int64
	d := startTestDaemon(t, Config{Name: "wedge", PoolConfig: &PoolConfig{CallTimeout: callTimeout}}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "blob"}, func(_ *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			served.Add(1)
			return cmdlang.OK().SetString("data", blob), nil
		})
	})
	stalled, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	for i := 1; i <= 64; i++ { // 32 MiB of replies, none of them read
		if _, err := wire.WriteCmd(stalled, cmdlang.New("blob").SetInt(cmdlang.SeqArg, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The socket buffers are full once the handler stops being called:
	// a reply write is blocked.
	var blocked int64
	for stable := 0; stable < 10; time.Sleep(10 * time.Millisecond) {
		if n := served.Load(); n > 0 && n == blocked {
			stable++
		} else {
			blocked, stable = n, 0
		}
	}
	if blocked == 64 {
		t.Fatal("every reply fit in the socket buffers: no write ever blocked")
	}

	c := dialTest(t, d)
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout/2)
	defer cancel()
	start := time.Now()
	if _, err := c.CallContext(ctx, cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("ping waited %v behind a stalled reader: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if served.Load() != blocked {
		t.Fatal("the stalled connection's write unblocked before the ping was answered")
	}
}

// TestDataThreadSurvivesGarbage: random datagrams never kill the
// data thread.
func TestDataThreadSurvivesGarbage(t *testing.T) {
	got := make(chan []byte, 16)
	d := New(Config{Name: "udpsafe", DataHandler: func(pkt []byte, _ net.Addr) { got <- pkt }})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	src := New(Config{Name: "udpsrc"})
	if err := src.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Stop)

	for _, pkt := range [][]byte{{}, {0}, []byte("garbage"), make([]byte, 60000)} {
		if err := src.SendData(d.DataAddr(), pkt); err != nil {
			t.Fatal(err)
		}
	}
	// A normal packet still arrives afterwards.
	if err := src.SendData(d.DataAddr(), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		select {
		case pkt := <-got:
			if string(pkt) == "ok" {
				return
			}
		default:
			if time.Now().After(deadline) {
				t.Fatal("normal packet never arrived after garbage")
			}
			time.Sleep(time.Millisecond)
		}
	}
}
