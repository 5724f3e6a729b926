package asd

import (
	"fmt"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/telemetry"
)

// startReplicatedTrio stands up a 3-node pstore cluster and three
// directory daemons replicated over it, cross-subscribed so a change
// acked by one replica evicts the others' in-memory copies.
func startReplicatedTrio(t *testing.T, reap time.Duration) ([]*Service, *daemon.Pool) {
	t.Helper()
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)

	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	store := pstore.NewClient(pool, cluster.Addrs())
	t.Cleanup(store.Close)

	var svcs []*Service
	for i := 0; i < 3; i++ {
		s := New(Config{
			Daemon:       daemon.Config{Name: fmt.Sprintf("asdrep%d", i+1)},
			ReapInterval: reap,
			Store:        store,
		})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		svcs = append(svcs, s)
	}
	if err := SubscribeReplicas(pool, svcs); err != nil {
		t.Fatal(err)
	}
	return svcs, pool
}

func registerVia(t *testing.T, pool *daemon.Pool, asdAddr, name, svcAddr string, leaseMS int64) {
	t.Helper()
	_, err := pool.Call(asdAddr, cmdlang.New(daemon.CmdRegister).
		SetWord("name", name).SetWord("host", "h").SetInt("port", 1).
		SetString("addr", svcAddr).SetInt("lease", leaseMS))
	if err != nil {
		t.Fatal(err)
	}
}

// Any replica serves any entry: a registration acked by one directory
// daemon is resolvable and renewable through its siblings, because
// the store — not any single daemon's memory — is the authority.
func TestReplicatedDirectoryServesFromAnyReplica(t *testing.T) {
	svcs, pool := startReplicatedTrio(t, 50*time.Millisecond)

	registerVia(t, pool, svcs[0].Addr(), "cam1", "m25:1225", 60000)

	// Lookup through a replica that never saw the registration reads
	// through to the store.
	addr, err := Resolve(pool, svcs[1].Addr(), Query{Name: "cam1"})
	if err != nil || addr != "m25:1225" {
		t.Fatalf("addr=%q err=%v", addr, err)
	}

	// Renewal through a third replica succeeds on the same evidence.
	reply, err := pool.Call(svcs[2].Addr(), cmdlang.New(daemon.CmdRenew).
		SetWord("name", "cam1").SetInt("lease", 60000))
	if err != nil {
		t.Fatalf("renew via sibling: %v", err)
	}
	if reply.Int("lease", 0) != 60000 {
		t.Fatalf("lease=%d", reply.Int("lease", 0))
	}

	// An unregister through one replica disappears from all of them
	// (notification-evicted or sync-dropped, whichever lands first).
	if _, err := pool.Call(svcs[1].Addr(), cmdlang.New(daemon.CmdUnregister).SetWord("name", "cam1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := Resolve(pool, svcs[0].Addr(), Query{Name: "cam1"})
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unregistered entry still resolvable via sibling: err=%v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// None of that was a lease expiration.
	for i, s := range svcs {
		if _, exp := s.Directory().Counters(); exp != 0 {
			t.Fatalf("replica %d counted %d expirations", i+1, exp)
		}
	}
}

// A re-registration at a new address evicts sibling replicas' stale
// memory via §2.6 notifications alone: the reap/sync interval is an
// hour, so only the directoryChanged delivery can explain the
// convergence.
func TestReplicaSiblingEvictionViaNotification(t *testing.T) {
	svcs, pool := startReplicatedTrio(t, time.Hour)

	registerVia(t, pool, svcs[0].Addr(), "mover", "old:1", 60000)
	// Warm replica B's memory with the old address.
	if addr, err := Resolve(pool, svcs[1].Addr(), Query{Name: "mover"}); err != nil || addr != "old:1" {
		t.Fatalf("addr=%q err=%v", addr, err)
	}

	// The service moves: re-register at a new address through A.
	registerVia(t, pool, svcs[0].Addr(), "mover", "new:2", 60000)

	// B's stale copy is evicted by A's register notification; the next
	// name lookup reads through and serves the new address. Sync
	// cannot rescue this test — it never runs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		addr, err := Resolve(pool, svcs[1].Addr(), Query{Name: "mover"})
		if err == nil && addr == "new:2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sibling never converged: addr=%q err=%v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Satellite race 1: a client holds a warm positive cache entry for a
// service that re-registers at a new address. The register
// notification must evict the stale positive — positive entries have
// no TTL here, so nothing else can — and the next resolve through the
// (updated) preferred replica returns the new address.
func TestClientCacheStalePositiveEvictedOnReregister(t *testing.T) {
	svcs, pool := startReplicatedTrio(t, time.Hour)

	tel := telemetry.NewRegistry()
	cpool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: tel})
	defer cpool.Close()
	client := NewClient(cpool, svcs[0].Addr(), svcs[1].Addr(), svcs[2].Addr())

	edge := daemon.New(daemon.Config{Name: "edge_cache1"})
	client.HandleInvalidation(edge)
	if err := edge.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Stop)
	if err := client.SubscribeInvalidation(edge); err != nil {
		t.Fatal(err)
	}

	registerVia(t, pool, svcs[0].Addr(), "roamer", "old:1", 60000)

	// First resolve warms the cache (and pins svcs[0] as preferred);
	// the second is served without leaving the process.
	for i := 0; i < 2; i++ {
		if addr, err := client.Resolve(Query{Name: "roamer"}); err != nil || addr != "old:1" {
			t.Fatalf("resolve %d: addr=%q err=%v", i, addr, err)
		}
	}
	if hits := tel.Counter(daemon.MetricLookupCacheHits).Value(); hits != 1 {
		t.Fatalf("cache hits=%d, want 1", hits)
	}

	// The service moves. Re-registering through the client's preferred
	// replica updates that replica's memory synchronously with the
	// ack, so once the client's cache entry is evicted the re-fetch
	// cannot resurrect the old address.
	registerVia(t, pool, svcs[0].Addr(), "roamer", "new:2", 60000)

	deadline := time.Now().Add(5 * time.Second)
	for {
		addr, err := client.Resolve(Query{Name: "roamer"})
		if err == nil && addr == "new:2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale positive never evicted: addr=%q err=%v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if inv := tel.Counter(daemon.MetricLookupCacheInvalidations).Value(); inv == 0 {
		t.Fatal("convergence without a recorded invalidation")
	}
}

// Satellite race 2: a cached negative answer outlives a late
// registration by at most the negative TTL. This client deliberately
// has no notification subscription — the TTL is the backstop for
// exactly that (lost or absent delivery), so absence must age out on
// its own.
func TestClientCacheNegativeTTLExpiryAfterLateRegistration(t *testing.T) {
	svcs, pool := startReplicatedTrio(t, time.Hour)

	tel := telemetry.NewRegistry()
	cpool := daemon.NewPoolConfig(daemon.PoolConfig{
		Telemetry:         tel,
		LookupNegativeTTL: 500 * time.Millisecond,
	})
	defer cpool.Close()
	client := NewClient(cpool, svcs[0].Addr(), svcs[1].Addr(), svcs[2].Addr())

	// Miss, then cached miss.
	for i := 0; i < 2; i++ {
		if _, err := client.Resolve(Query{Name: "latecomer"}); !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			t.Fatalf("resolve %d: err=%v", i, err)
		}
	}
	if neg := tel.Counter(daemon.MetricLookupCacheNegativeHits).Value(); neg != 1 {
		t.Fatalf("negative hits=%d, want 1", neg)
	}

	// The service registers late. With no notification path, the
	// cached absence keeps answering until its TTL…
	registerVia(t, pool, svcs[0].Addr(), "latecomer", "late:9", 60000)
	if _, err := client.Resolve(Query{Name: "latecomer"}); !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("negative entry did not mask the late registration: err=%v", err)
	}

	// …after which the registration becomes visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		addr, err := client.Resolve(Query{Name: "latecomer"})
		if err == nil && addr == "late:9" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("negative entry never expired: err=%v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// A daemon configured with the full replica list keeps its lease
// alive through the loss of its preferred directory: renewals fail
// over to a surviving replica that honors the same durable lease.
func TestDaemonLeaseFailsOverAcrossReplicas(t *testing.T) {
	svcs, _ := startReplicatedTrio(t, 50*time.Millisecond)

	d := daemon.New(daemon.Config{
		Name:     "failover_client",
		ASDAddr:  svcs[0].Addr(),
		ASDAddrs: []string{svcs[1].Addr(), svcs[2].Addr()},
		LeaseTTL: 300 * time.Millisecond,
		PoolConfig: &daemon.PoolConfig{
			DialTimeout: 200 * time.Millisecond,
			CallTimeout: time.Second,
			MaxRetries:  1,
		},
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	// Kill the daemon's preferred (primary) directory.
	svcs[0].Stop()

	// The lease must stay alive through failover: across several lease
	// periods the entry remains resolvable via survivors and no
	// survivor ever counts an expiration for it.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, exp := svcs[1].Directory().Counters(); exp != 0 {
			t.Fatalf("replica 2 expired the lease during failover")
		}
		if _, exp := svcs[2].Directory().Counters(); exp != 0 {
			t.Fatalf("replica 3 expired the lease during failover")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := svcs[1].Directory().Lookup(Query{Name: "failover_client"}); len(got) != 1 {
		t.Fatalf("lease lost after primary kill: %v", got)
	}
}

// The resolve-path read-through takes the store's bounded-staleness
// entry point (single replica when provably fresh, quorum fallback
// otherwise), while renewals keep the quorum path: the bounded
// instruments tick only for the lookup.
func TestReplicaResolveReadThroughUsesBoundedPath(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	reg := telemetry.NewRegistry()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: reg})
	t.Cleanup(pool.Close)
	store := pstore.NewClient(pool, cluster.Addrs())
	t.Cleanup(store.Close)

	var svcs []*Service
	for i := 0; i < 2; i++ {
		s := New(Config{
			Daemon:       daemon.Config{Name: fmt.Sprintf("asdbnd%d", i+1)},
			ReapInterval: time.Hour,
			Store:        store,
		})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		svcs = append(svcs, s)
	}

	registerVia(t, pool, svcs[0].Addr(), "cam7", "m7:1207", 60000)
	addr, err := Resolve(pool, svcs[1].Addr(), Query{Name: "cam7"})
	if err != nil || addr != "m7:1207" {
		t.Fatalf("addr=%q err=%v", addr, err)
	}
	if rt := svcs[1].Telemetry().Snapshot().Counter(MetricReplicaReadThroughs); rt != 1 {
		t.Fatalf("read-throughs = %d, want 1", rt)
	}
	snap := reg.Snapshot()
	bounded := snap.Counter(pstore.MetricBoundedHits) + snap.Counter(pstore.MetricBoundedFallbacks)
	if bounded != 1 {
		t.Fatalf("bounded reads = %d, want 1 (resolve read-through must use the bounded path)", bounded)
	}
}

// Stop returns only after the reap loop has exited, so a caller may
// close the service's store client straight after it: the service
// reads the store no more. Under -race a reaper still syncing after
// Stop also shows as its Add to the store client's background
// WaitGroup racing Close's Wait.
func TestStopJoinsReaperBeforeStoreClose(t *testing.T) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)

	// A sibling replica fills the store, so the first reap pass of the
	// replica under test has a long run of entries to load — quorum
	// reads, each leaving a straggler to drain — and Stop lands in the
	// middle of it.
	writerStore := pstore.NewClient(pool, cluster.Addrs())
	t.Cleanup(writerStore.Close)
	writer := New(Config{Daemon: daemon.Config{Name: "asdwriter"}, ReapInterval: time.Hour, Store: writerStore})
	if err := writer.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(writer.Stop)
	for i := 0; i < 200; i++ {
		registerVia(t, pool, writer.Addr(), fmt.Sprintf("svc%d", i), "m1:1", 60000)
	}

	store := pstore.NewClient(pool, cluster.Addrs())
	s := New(Config{Daemon: daemon.Config{Name: "asdstop"}, ReapInterval: time.Millisecond, Store: store})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	storeReads := func() int64 { return s.Telemetry().Snapshot().Counter(MetricReplicaStoreReads) }
	deadline := time.Now().Add(5 * time.Second)
	for storeReads() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reaper never read the store")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Stop()
	reads := storeReads()
	store.Close()
	time.Sleep(20 * time.Millisecond)
	if after := storeReads(); after != reads {
		t.Fatalf("%d store reads after Stop returned", after-reads)
	}
}
