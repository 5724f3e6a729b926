package apps

import (
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
)

func startASD(t *testing.T) *asd.Service {
	t.Helper()
	s := asd.New(asd.Config{ReapInterval: 20 * time.Millisecond})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// startWatcher starts w and, when the test ends, stops it and then the
// instances it launched: the watcher leaves watched applications
// running by design.
func startWatcher(t *testing.T, w *Watcher) {
	t.Helper()
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Stop()
		for _, inst := range w.running {
			inst.Stop()
		}
	})
}

// echoApp is a trivial restartable application daemon.
func echoApp(name, asdAddr string) *daemon.Daemon {
	d := daemon.New(daemon.Config{Name: name, ASDAddr: asdAddr, LeaseTTL: 60 * time.Millisecond})
	d.Handle(cmdlang.CommandSpec{Name: "echo", AllowExtra: true},
		func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.OK().SetString("text", c.Str("text", "")), nil
		})
	return d
}

func TestWatcherRestartsCrashedRestartApp(t *testing.T) {
	dir := startASD(t)

	app := echoApp("netlogger_sim", dir.Addr())
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	w := NewWatcher(WatcherConfig{ASDAddr: dir.Addr(), Interval: 30 * time.Millisecond})
	w.Watch(Spec{
		Name:  "netlogger_sim",
		Class: Restart,
		Factory: func() (Startable, error) {
			return echoApp("netlogger_sim", dir.Addr()), nil
		},
	}, app)
	startWatcher(t, w)

	// Crash the app: it deregisters (graceful stop simulates the
	// lease-expiry path much faster).
	app.Stop()

	deadline := time.Now().Add(3 * time.Second)
	pool := daemon.NewPool(nil)
	defer pool.Close()
	for {
		if addr, err := asd.Resolve(pool, dir.Addr(), asd.Query{Name: "netlogger_sim"}); err == nil {
			// It's back and answering.
			if _, err := pool.Call(addr, cmdlang.New("echo").SetString("text", "hi")); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restart app never came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if w.Restarts("netlogger_sim") < 1 {
		t.Fatal("restart not counted")
	}
}

func TestWatcherIgnoresTemporaryApps(t *testing.T) {
	dir := startASD(t)
	w := NewWatcher(WatcherConfig{ASDAddr: dir.Addr(), Interval: 20 * time.Millisecond})
	w.Watch(Spec{Name: "browser", Class: Temporary, Factory: func() (Startable, error) {
		t.Fatal("temporary app restarted")
		return nil, nil
	}}, nil)
	if restarted := w.Sweep(); len(restarted) != 0 {
		t.Fatalf("restarted=%v", restarted)
	}
}

func TestWatcherSweepReportsAndCommandSurface(t *testing.T) {
	dir := startASD(t)
	w := NewWatcher(WatcherConfig{ASDAddr: dir.Addr(), Interval: time.Hour})
	w.Watch(Spec{
		Name:  "gone_service",
		Class: Restart,
		Factory: func() (Startable, error) {
			return echoApp("gone_service", dir.Addr()), nil
		},
	}, nil)
	startWatcher(t, w)

	restarted := w.Sweep()
	if len(restarted) != 1 || restarted[0] != "gone_service" {
		t.Fatalf("restarted=%v", restarted)
	}
	// Next sweep: alive, nothing to do.
	if restarted := w.Sweep(); len(restarted) != 0 {
		t.Fatalf("second sweep=%v", restarted)
	}

	pool := daemon.NewPool(nil)
	defer pool.Close()
	reply, err := pool.Call(w.Addr(), cmdlang.New("watched"))
	if err != nil {
		t.Fatal(err)
	}
	if names := reply.Strings("names"); len(names) != 1 || names[0] != "gone_service" {
		t.Fatalf("reply=%v", reply)
	}
	counts := reply.Vector("restarts")
	if n, _ := counts[0].AsInt(); n != 1 {
		t.Fatalf("counts=%v", counts)
	}
}

func TestRobustCounterFailover(t *testing.T) {
	// §5.3 + §6: a robust application recovers its exact state from
	// the persistent store after a crash.
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool := daemon.NewPool(nil)
	defer pool.Close()
	store := pstore.NewClient(pool, cluster.Addrs())
	ckpt := &Checkpointer{Client: store, Path: "/apps/counter/state"}

	c1 := NewRobustCounter(daemon.Config{Name: "counter"}, ckpt)
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := pool.Call(c1.Addr(), cmdlang.New("increment")); err != nil {
			t.Fatal(err)
		}
	}
	c1.Stop() // crash

	// A replacement instance resumes from 7, not 0.
	c2 := NewRobustCounter(daemon.Config{Name: "counter"}, ckpt)
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Stop)
	reply, err := pool.Call(c2.Addr(), cmdlang.New("value"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Int("value", 0) != 7 {
		t.Fatalf("recovered value=%d", reply.Int("value", 0))
	}
	// And continues correctly.
	inc, err := pool.Call(c2.Addr(), cmdlang.New("increment"))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Int("value", 0) != 8 {
		t.Fatalf("value=%v", inc)
	}
}

func TestRobustCounterSurvivesOneStoreCrash(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool := daemon.NewPool(nil)
	defer pool.Close()
	store := pstore.NewClient(pool, cluster.Addrs())
	ckpt := &Checkpointer{Client: store, Path: "/apps/counter2/state"}

	c := NewRobustCounter(daemon.Config{Name: "counter2"}, ckpt)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if _, err := pool.Call(c.Addr(), cmdlang.New("increment")); err != nil {
		t.Fatal(err)
	}
	cluster.Nodes[1].Stop() // one store replica dies
	if _, err := pool.Call(c.Addr(), cmdlang.New("increment")); err != nil {
		t.Fatalf("increment with one store crash: %v", err)
	}
}

func TestClassStrings(t *testing.T) {
	if Temporary.String() != "temporary" || Restart.String() != "restart" || Robust.String() != "robust" {
		t.Fatal("class names")
	}
	if Class(99).String() != "unknown" {
		t.Fatal("unknown class")
	}
}
