package asd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
	"ace/internal/wire"
)

func startASD(t *testing.T, reap time.Duration) *Service {
	t.Helper()
	s := New(Config{ReapInterval: reap})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestServiceRegisterLookupFlow(t *testing.T) {
	s := startASD(t, 0)
	pool := daemon.NewPool(nil)
	defer pool.Close()

	// Fig 7: a PTZ camera daemon registers...
	_, err := pool.Call(s.Addr(), cmdlang.New(daemon.CmdRegister).
		SetWord("name", "ptz1").SetWord("host", "machine25").SetInt("port", 1225).
		SetString("addr", "machine25:1225").SetWord("room", "hawk").
		SetString("class", hier.ClassVCC3).SetInt("lease", 60000))
	if err != nil {
		t.Fatal(err)
	}

	// ...and a client asks "PTZ Camera Address??".
	addr, err := Resolve(pool, s.Addr(), Query{Class: hier.ClassPTZCamera})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "machine25:1225" {
		t.Fatalf("addr=%q", addr)
	}

	// Lookup for something absent fails with not_found.
	_, err = Resolve(pool, s.Addr(), Query{Class: hier.ClassProjector})
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("err=%v", err)
	}
}

func TestServiceLeaseReaping(t *testing.T) {
	s := startASD(t, 20*time.Millisecond)
	pool := daemon.NewPool(nil)
	defer pool.Close()

	_, err := pool.Call(s.Addr(), cmdlang.New(daemon.CmdRegister).
		SetWord("name", "flaky").SetWord("host", "h").SetInt("port", 1).
		SetString("addr", "h:1").SetInt("lease", 50))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Directory().Get("flaky"); !ok {
		t.Fatal("not registered")
	}
	// The daemon "crashes" (never renews); the ASD removes it so other
	// services don't waste time connecting to a defunct service.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := s.Directory().Get("flaky"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired service never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, err = Resolve(pool, s.Addr(), Query{Name: "flaky"})
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("err=%v", err)
	}
}

func TestDaemonAutoRegistrationAndRenewal(t *testing.T) {
	s := startASD(t, 20*time.Millisecond)

	// A daemon configured with the ASD address registers itself at
	// startup (Fig 9 step 3) and stays listed via lease renewal.
	d := daemon.New(daemon.Config{
		Name:     "autocam",
		Class:    hier.ClassVCC4,
		Room:     "hawk",
		ASDAddr:  s.Addr(),
		LeaseTTL: 60 * time.Millisecond,
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}

	e, ok := s.Directory().Get("autocam")
	if !ok || e.Class != hier.ClassVCC4 {
		t.Fatalf("entry=%+v ok=%v", e, ok)
	}

	// Stay up well past several lease periods: renewals must keep it
	// listed.
	time.Sleep(300 * time.Millisecond)
	if _, ok := s.Directory().Get("autocam"); !ok {
		t.Fatal("lease renewal failed to keep daemon listed")
	}

	// Graceful stop unregisters immediately.
	d.Stop()
	if _, ok := s.Directory().Get("autocam"); ok {
		t.Fatal("stopped daemon still listed")
	}
}

func TestCrashedDaemonReapedFromASD(t *testing.T) {
	s := startASD(t, 20*time.Millisecond)
	d := daemon.New(daemon.Config{
		Name:     "crashy",
		ASDAddr:  s.Addr(),
		LeaseTTL: 80 * time.Millisecond,
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Directory().Get("crashy"); !ok {
		t.Fatal("not registered")
	}
	d.Stop()
	// Re-register a tombstone manually to simulate a crash that left
	// the entry behind without renewals.
	s.Directory().Register(Entry{Name: "crashy", Addr: "gone:1", Lease: 50 * time.Millisecond}) //nolint:errcheck

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := s.Directory().Get("crashy"); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed daemon never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRegistrationTriggersNotification(t *testing.T) {
	// Fig 9 step 4: services awaiting notification on "register" learn
	// that a new service is available.
	s := startASD(t, 0)

	events := make(chan *cmdlang.CmdLine, 1)
	watcher := daemon.New(daemon.Config{Name: "watcher"})
	watcher.Handle(cmdlang.CommandSpec{Name: "onServiceUp", AllowExtra: true},
		func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			events <- c
			return nil, nil
		})
	if err := watcher.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watcher.Stop)

	pool := daemon.NewPool(nil)
	defer pool.Close()
	if err := daemon.Subscribe(pool, s.Addr(), daemon.CmdRegister, "watcher", watcher.Addr(), "onServiceUp"); err != nil {
		t.Fatal(err)
	}

	newSvc := daemon.New(daemon.Config{Name: "foo", ASDAddr: s.Addr()})
	if err := newSvc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(newSvc.Stop)

	select {
	case ev := <-events:
		if ev.Str(daemon.NotifyEventArg, "") != daemon.CmdRegister {
			t.Fatalf("event=%v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("registration notification not delivered")
	}
}

func TestResolveAll(t *testing.T) {
	s := startASD(t, 0)
	pool := daemon.NewPool(nil)
	defer pool.Close()
	for _, name := range []string{"c1", "c2", "c3"} {
		_, err := pool.Call(s.Addr(), cmdlang.New(daemon.CmdRegister).
			SetWord("name", name).SetWord("host", "h").SetInt("port", 9).
			SetString("addr", name+":9").SetString("class", hier.ClassPTZCamera))
		if err != nil {
			t.Fatal(err)
		}
	}
	addrs, err := ResolveAll(pool, s.Addr(), Query{Class: hier.ClassPTZCamera})
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[0] != "c1:9" {
		t.Fatalf("addrs=%v", addrs)
	}
}

// TestManyConcurrentClients is E11's shape (§9: "hundreds and even
// thousands of users"): 200 clients, each on its own connection, are
// all served at once. Each makes one lookup, waits until every client
// has been answered, then makes 20 more, so all 200 connections are
// open and in use together. Not one reply may fail.
func TestManyConcurrentClients(t *testing.T) {
	s := startASD(t, 0)
	if _, err := s.Directory().Register(Entry{Name: "target", Addr: "h:1", Lease: time.Hour}); err != nil {
		t.Fatal(err)
	}
	const clients, lookups = 200, 20
	failed := make(chan error, clients)
	lookup := func(c *wire.Client) error {
		reply, err := c.Call(cmdlang.New(daemon.CmdLookup).SetWord("name", "target"))
		if err == nil && reply.Str("addr", "") != "h:1" {
			err = fmt.Errorf("lookup answered %v", reply)
		}
		return err
	}
	var arrived, done sync.WaitGroup
	arrived.Add(clients)
	done.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer done.Done()
			c, err := wire.Dial(nil, s.Addr())
			if err == nil {
				defer c.Close()
				err = lookup(c)
			}
			arrived.Done()
			arrived.Wait()
			for j := 0; err == nil && j < lookups; j++ {
				err = lookup(c)
			}
			if err != nil {
				failed <- err
			}
		}()
	}
	done.Wait()
	if n := len(failed); n != 0 {
		t.Fatalf("%d of %d clients had a lookup fail, first: %v", n, clients, <-failed)
	}
}
