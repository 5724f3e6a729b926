package chaos_test

// Chaos-driven integration tests for the resilience layer: the
// paper's robustness claims (services survive daemon crashes, state
// lives in the replicated persistent store, leases heal directory
// state) exercised under injected partitions, stalls, and restarts.
// All fault schedules derive from fixed seeds, so a failure here
// reproduces exactly.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/telemetry"
)

const chaosSeed = 20260806 // fixed: schedules must reproduce run-to-run

// chaosPool builds a client pool tight enough that injected faults
// surface in milliseconds, not dial-timeout seconds.
func chaosPool() *daemon.Pool {
	return daemon.NewPoolConfig(daemon.PoolConfig{
		DialTimeout:     300 * time.Millisecond,
		CallTimeout:     time.Second,
		MaxRetries:      1,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      20 * time.Millisecond,
		BreakerCooldown: 100 * time.Millisecond,
		Seed:            chaosSeed,
	})
}

// TestChaosPstoreQuorumUnderPartition: with one replica partitioned
// away, quorum reads and writes stay correct and prompt; after the
// partition heals, read repair converges the lagging replica without
// anti-entropy running.
func TestChaosPstoreQuorumUnderPartition(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.StopAll()

	fabric := chaos.NewFabric(chaosSeed)
	defer fabric.Close()
	var proxied []string
	for i, addr := range cluster.Addrs() {
		name := fmt.Sprintf("r%d", i+1)
		if _, err := fabric.Proxy(name, addr); err != nil {
			t.Fatal(err)
		}
		proxied = append(proxied, fabric.Addr(name))
	}

	pool := chaosPool()
	defer pool.Close()
	client := pstore.NewClient(pool, proxied)
	defer client.Close()

	if _, err := client.Put("/chaos/x", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Partition replica 3 and keep writing/reading through the
	// remaining majority.
	fabric.Partition("r3")
	start := time.Now()
	v2, err := client.Put("/chaos/x", []byte("v2"))
	if err != nil {
		t.Fatalf("quorum write with one replica partitioned: %v", err)
	}
	got, gotVer, ok, err := client.Get("/chaos/x")
	if err != nil || !ok {
		t.Fatalf("quorum read with one replica partitioned: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, []byte("v2")) || gotVer != v2 {
		t.Fatalf("read %q@%d, want v2@%d", got, gotVer, v2)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("degraded quorum round took %v; partition is not cheap", elapsed)
	}

	// Heal. The lagging replica catches up through client read repair
	// alone (the cluster runs no background anti-entropy here).
	fabric.Heal("r3")
	deadline := time.Now().Add(10 * time.Second)
	for {
		client.Get("/chaos/x") //nolint:errcheck — each read triggers repair of laggards
		reply, err := pool.Call(proxied[2], cmdlang.New("psget").SetString("path", "/chaos/x"))
		if err == nil && reply.Str("value", "") != "" && uint64(reply.Int("version", 0)) == v2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 3 never converged after heal (err=%v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosPstoreQuorumFailsClosedWithoutMajority: with two of three
// replicas partitioned, reads and writes fail promptly and
// explicitly rather than hanging or returning stale data as fresh.
func TestChaosPstoreQuorumFailsClosedWithoutMajority(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.StopAll()

	fabric := chaos.NewFabric(chaosSeed)
	defer fabric.Close()
	var proxied []string
	for i, addr := range cluster.Addrs() {
		name := fmt.Sprintf("r%d", i+1)
		if _, err := fabric.Proxy(name, addr); err != nil {
			t.Fatal(err)
		}
		proxied = append(proxied, fabric.Addr(name))
	}
	pool := chaosPool()
	defer pool.Close()
	client := pstore.NewClient(pool, proxied)
	defer client.Close()

	if _, err := client.Put("/chaos/y", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fabric.Partition("r1", "r2")
	start := time.Now()
	if _, err := client.Put("/chaos/y", []byte("v2")); err == nil {
		t.Fatal("minority write succeeded")
	}
	if _, _, _, err := client.Get("/chaos/y"); err == nil {
		t.Fatal("minority read reported a quorum")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("minority round took %v; failures are not prompt", elapsed)
	}
}

// TestChaosASDLeaseSurvivesDirectoryRestart: a daemon keeps its
// directory entry alive across an ASD crash and restart on a new
// port (the proxy keeps the well-known address stable), via lease
// renewal discovering the restart and re-registering.
func TestChaosASDLeaseSurvivesDirectoryRestart(t *testing.T) {
	dir1 := asd.New(asd.Config{ReapInterval: 20 * time.Millisecond})
	if err := dir1.Start(); err != nil {
		t.Fatal(err)
	}

	proxy, err := chaos.NewProxy(dir1.Addr(), chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	d := daemon.New(daemon.Config{
		Name:     "phoenix_chaos",
		ASDAddr:  proxy.Addr(),
		LeaseTTL: 200 * time.Millisecond,
		PoolConfig: &daemon.PoolConfig{
			DialTimeout:     200 * time.Millisecond,
			CallTimeout:     500 * time.Millisecond,
			MaxRetries:      -1,
			BreakerCooldown: 100 * time.Millisecond,
			Seed:            chaosSeed,
		},
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if got := dir1.Directory().Lookup(asd.Query{Name: "phoenix_chaos"}); len(got) != 1 {
		t.Fatalf("initial registration missing: %v", got)
	}

	// The directory crashes; renewals fail at the transport level
	// until a fresh, empty directory comes up behind the same proxy
	// address.
	dir1.Stop()
	// Deliberate fault-window pacing, not synchronization: the test
	// holds the directory down long enough for several renewal attempts
	// (one per ~66 ms) to fail at the transport level. There is no
	// externally observable state to poll for a failed renewal.
	time.Sleep(300 * time.Millisecond)
	dir2 := asd.New(asd.Config{ReapInterval: 20 * time.Millisecond})
	if err := dir2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dir2.Stop)
	proxy.SetTarget(dir2.Addr())

	// The daemon's next renewal gets not_found from the new directory
	// and re-registers.
	deadline := time.Now().Add(10 * time.Second)
	for len(dir2.Directory().Lookup(asd.Query{Name: "phoenix_chaos"})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("daemon never re-registered with the restarted directory")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And when the daemon stops, its lease expires from the live
	// directory (no zombie entries).
	d.Stop()
	deadline = time.Now().Add(10 * time.Second)
	for len(dir2.Directory().Lookup(asd.Query{Name: "phoenix_chaos"})) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stopped daemon's lease never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosNotificationDeliveryDegradesGracefully: a blackholed
// listener neither stalls nor crashes the notifying daemon; once the
// path heals, later notifications flow again (delivery is
// at-least-once with no replay of lost ones).
func TestChaosNotificationDeliveryDegradesGracefully(t *testing.T) {
	source := daemon.New(daemon.Config{
		Name: "cam_chaos",
		PoolConfig: &daemon.PoolConfig{
			DialTimeout:     200 * time.Millisecond,
			CallTimeout:     500 * time.Millisecond,
			BreakerCooldown: 100 * time.Millisecond,
			Seed:            chaosSeed,
		},
	})
	source.Handle(cmdlang.CommandSpec{Name: "move", Args: []cmdlang.ArgSpec{{Name: "x", Kind: cmdlang.KindInt}}},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
	if err := source.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(source.Stop)

	var mu sync.Mutex
	seen := 0
	listener := daemon.New(daemon.Config{Name: "tracker_chaos"})
	listener.Handle(cmdlang.CommandSpec{Name: "onMoved", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			mu.Lock()
			seen++
			mu.Unlock()
			return nil, nil
		})
	if err := listener.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(listener.Stop)

	proxy, err := chaos.NewProxy(listener.Addr(), chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pool := chaosPool()
	defer pool.Close()
	if err := daemon.Subscribe(pool, source.Addr(), "move", "tracker_chaos", proxy.Addr(), "onMoved"); err != nil {
		t.Fatal(err)
	}

	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}

	// Baseline delivery works.
	if _, err := pool.Call(source.Addr(), cmdlang.New("move").SetInt("x", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("baseline notification never delivered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Blackhole the listener. Commands on the source must stay fast —
	// notification delivery is off the command path.
	proxy.SetFaults(chaos.Faults{Blackhole: true})
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := pool.Call(source.Addr(), cmdlang.New("move").SetInt("x", 2)); err != nil {
			t.Fatalf("source call failed while listener blackholed: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("source call took %v with a blackholed listener", elapsed)
		}
	}

	// Heal and keep executing: delivery must resume. (Notifications
	// swallowed during the blackhole stay lost — at-least-once, not
	// replayed — so we only demand that *new* executions get through.)
	proxy.Heal()
	before := count()
	deadline = time.Now().Add(10 * time.Second)
	for count() <= before {
		if _, err := pool.Call(source.Addr(), cmdlang.New("move").SetInt("x", 3)); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("notifications never resumed after heal")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosPstoreCorruptReplicaCannotWinQuorum: a replica answering
// with corrupt values (a string, not a byte string) is treated as
// failed — it neither wins the read nor counts toward the majority —
// while the healthy majority still serves the true value.
func TestChaosPstoreCorruptReplicaCannotWinQuorum(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.StopAll()

	pool := chaosPool()
	defer pool.Close()

	// A rogue "replica": speaks the psget protocol but returns
	// garbage hex at a sky-high version, simulating on-disk
	// corruption.
	rogue := daemon.New(daemon.Config{Name: "rogue_replica"})
	rogue.Handle(cmdlang.CommandSpec{Name: "psget", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			// Above any clock stamp of this century.
			return cmdlang.OK().SetString("value", "zz_not_hex").SetInt("version", 1<<62), nil
		})
	rogue.Handle(cmdlang.CommandSpec{Name: "psput", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.OK().SetBool("applied", true), nil
		})
	if err := rogue.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Stop)

	// Seed the healthy pair through a client that doesn't know the
	// rogue.
	healthy := pstore.NewClient(pool, cluster.Addrs()[:2])
	defer healthy.Close()
	version, err := healthy.Put("/chaos/z", []byte("truth"))
	if err != nil {
		t.Fatal(err)
	}

	// Now read through a set where the rogue replaces replica 3.
	mixed := pstore.NewClient(pool, []string{cluster.Addrs()[0], cluster.Addrs()[1], rogue.Addr()})
	defer mixed.Close()
	got, gotVer, ok, err := mixed.Get("/chaos/z")
	if err != nil || !ok {
		t.Fatalf("read with corrupt replica: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, []byte("truth")) || gotVer != version {
		t.Fatalf("corrupt replica won the read: %q@%d", got, gotVer)
	}
}

// TestChaosPstoreBlackholedReplicaDoesNotSetQuorumLatency: the
// regression test for the quorum fast-path. A blackholed replica
// (connection up, bytes vanish) used to hold every Get and Put
// hostage for the full call timeout because the fan-out joined all
// replicas before returning. With the fast-path, the healthy
// majority decides the outcome and the blackholed replica is
// cancelled in the background (a read, asking only a majority, is
// hedged around it): client-visible latency must stay far under the
// call timeout, and the stragglers must show up in the pool's
// telemetry.
func TestChaosPstoreBlackholedReplicaDoesNotSetQuorumLatency(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.StopAll()

	fabric := chaos.NewFabric(chaosSeed)
	defer fabric.Close()
	var proxied []string
	for i, addr := range cluster.Addrs() {
		name := fmt.Sprintf("r%d", i+1)
		if _, err := fabric.Proxy(name, addr); err != nil {
			t.Fatal(err)
		}
		proxied = append(proxied, fabric.Addr(name))
	}

	const callTimeout = time.Second
	reg := telemetry.NewRegistry()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{
		DialTimeout:     300 * time.Millisecond,
		CallTimeout:     callTimeout,
		MaxRetries:      1,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      20 * time.Millisecond,
		BreakerCooldown: 100 * time.Millisecond,
		Seed:            chaosSeed,
		Telemetry:       reg,
	})
	defer pool.Close()
	client := pstore.NewClient(pool, proxied)
	defer client.Close()

	// Healthy baseline. The pool holds no connection yet, so no replica
	// can be told the write: it asks all three, and its third leg may
	// straggle without a hedge.
	if _, err := client.Put("/chaos/bh", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	base := reg.Snapshot()

	// Blackhole replica 3: its connections stay up but every byte is
	// discarded, so its calls stall until the deadline — the
	// worst-case straggler.
	fabric.Get("r3").SetFaults(chaos.Faults{Blackhole: true})

	for i := 0; i < 3; i++ {
		start := time.Now()
		v, err := client.Put("/chaos/bh", []byte(fmt.Sprintf("v%d", i+2)))
		if err != nil {
			t.Fatalf("round %d: quorum write with blackholed replica: %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > callTimeout/2 {
			t.Fatalf("round %d: Put took %v with one blackholed replica (timeout %v); blackholed replica set the quorum latency", i, elapsed, callTimeout)
		}
		start = time.Now()
		got, gotVer, ok, err := client.Get("/chaos/bh")
		if err != nil || !ok || gotVer != v {
			t.Fatalf("round %d: quorum read: ver=%d ok=%v err=%v", i, gotVer, ok, err)
		}
		if elapsed := time.Since(start); elapsed > callTimeout/2 {
			t.Fatalf("round %d: Get took %v with one blackholed replica (timeout %v); blackholed replica set the quorum latency", i, elapsed, callTimeout)
		}
		if want := []byte(fmt.Sprintf("v%d", i+2)); !bytes.Equal(got, want) {
			t.Fatalf("round %d: read %q, want %q", i, got, want)
		}
	}

	// Reads and writes ask only a majority, so whether one met the
	// blackholed replica depends on where the client's rotation stood;
	// when it did, it was hedged around it, and that leg is its one
	// straggler. The baseline put took the rotation's first place, so the
	// first put after the blackhole asks r3.
	snap := reg.Snapshot()
	if n, h := snap.Counter(pstore.MetricReadStragglers), snap.Counter(pstore.MetricReadHedges); n != h {
		t.Errorf("read stragglers = %d, hedges = %d: only a leg hedged around straggles", n, h)
	}
	stragglers := snap.Counter(pstore.MetricWriteStragglers) - base.Counter(pstore.MetricWriteStragglers)
	if n, h := stragglers, snap.Counter(pstore.MetricWriteHedges); n != h || n < 1 {
		t.Errorf("write stragglers = %d, hedges = %d: a put asked the blackholed replica, and only a leg hedged around straggles", n, h)
	}
}

// TestChaosPrimaryDirectoryKillZeroExpirations: the replicated-ASD
// drill. Three directory daemons share one persistent store; a fleet
// of service daemons holds short leases against the first (primary)
// replica with the others as fallbacks. Killing the primary in the
// middle of the renewal storm must cost ZERO lease expirations — the
// durable lease state outlives the daemon that acked it, renewals
// fail over, and the survivors confirm every deadline against the
// store before reaping anything.
func TestChaosPrimaryDirectoryKillZeroExpirations(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.StopAll()

	pool := chaosPool()
	defer pool.Close()
	store := pstore.NewClient(pool, cluster.Addrs())
	defer store.Close()

	var dirs []*asd.Service
	for i := 0; i < 3; i++ {
		s := asd.New(asd.Config{
			Daemon:       daemon.Config{Name: fmt.Sprintf("asd_chaos%d", i+1)},
			ReapInterval: 50 * time.Millisecond,
			Store:        store,
		})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		// Deferred, not t.Cleanup: the directories' reap loops write
		// through store and must be joined before store.Close drains it.
		defer s.Stop()
		dirs = append(dirs, s)
	}
	if err := asd.SubscribeReplicas(pool, dirs); err != nil {
		t.Fatal(err)
	}
	asdAddrs := []string{dirs[0].Addr(), dirs[1].Addr(), dirs[2].Addr()}

	// A fleet of short-lease daemons: every ~130 ms each one renews,
	// so the primary dies with renewals in flight.
	const fleet = 6
	var svcs []*daemon.Daemon
	for i := 0; i < fleet; i++ {
		d := daemon.New(daemon.Config{
			Name:     fmt.Sprintf("storm%d", i),
			ASDAddr:  asdAddrs[0],
			ASDAddrs: asdAddrs[1:],
			LeaseTTL: 400 * time.Millisecond,
			PoolConfig: &daemon.PoolConfig{
				DialTimeout:     200 * time.Millisecond,
				CallTimeout:     time.Second,
				MaxRetries:      1,
				BackoffBase:     5 * time.Millisecond,
				BackoffMax:      20 * time.Millisecond,
				BreakerCooldown: 100 * time.Millisecond,
				Seed:            chaosSeed,
			},
		})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		svcs = append(svcs, d)
	}

	// All registered with the primary.
	for _, d := range svcs {
		if got := dirs[0].Directory().Lookup(asd.Query{Name: d.Name()}); len(got) != 1 {
			t.Fatalf("%s not registered: %v", d.Name(), got)
		}
	}

	// Let the storm reach steady state, then kill the primary.
	time.Sleep(200 * time.Millisecond)
	dirs[0].Stop()

	// Hold the fault for several lease periods. Survivors must never
	// count an expiration: a lease acked by the dead primary is
	// durable, so a survivor's stale memory reads through instead of
	// reaping.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for i := 1; i < 3; i++ {
			if exp := dirs[i].Telemetry().Counter(asd.MetricExpirations).Value(); exp != 0 {
				t.Fatalf("replica %d expired a lease after the primary kill", i+1)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Every lease is still alive and resolvable through a survivor.
	for _, d := range svcs {
		addr, err := asd.Resolve(pool, dirs[1].Addr(), asd.Query{Name: d.Name()})
		if err != nil || addr != d.Addr() {
			t.Fatalf("%s lost after primary kill: addr=%q err=%v", d.Name(), addr, err)
		}
	}

	// The directory is still writable: a newcomer registers through
	// the survivors...
	late := daemon.New(daemon.Config{
		Name:     "storm_late",
		ASDAddr:  asdAddrs[0], // still points first at the corpse; must fail over
		ASDAddrs: asdAddrs[1:],
		LeaseTTL: 400 * time.Millisecond,
		PoolConfig: &daemon.PoolConfig{
			DialTimeout:     200 * time.Millisecond,
			CallTimeout:     time.Second,
			MaxRetries:      1,
			BackoffBase:     5 * time.Millisecond,
			BackoffMax:      20 * time.Millisecond,
			BreakerCooldown: 100 * time.Millisecond,
			Seed:            chaosSeed,
		},
	})
	if err := late.Start(); err != nil {
		t.Fatalf("registration through survivors failed: %v", err)
	}
	t.Cleanup(late.Stop)
	if addr, err := asd.Resolve(pool, dirs[2].Addr(), asd.Query{Name: "storm_late"}); err != nil || addr != late.Addr() {
		t.Fatalf("newcomer not resolvable: addr=%q err=%v", addr, err)
	}

	// ...and reaping still works — it just demands durable
	// confirmation. A crashed service (registered, never renews)
	// expires from the survivors.
	if _, err := pool.Call(dirs[1].Addr(), cmdlang.New(daemon.CmdRegister).
		SetWord("name", "storm_zombie").SetWord("host", "gone").SetInt("port", 1).
		SetString("addr", "gone:1").SetInt("lease", 200)); err != nil {
		t.Fatal(err)
	}
	expiry := time.Now().Add(10 * time.Second)
	for {
		_, err := asd.Resolve(pool, dirs[1].Addr(), asd.Query{Name: "storm_zombie"})
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			break
		}
		if time.Now().After(expiry) {
			t.Fatal("crashed service's lease never expired on the survivors")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
