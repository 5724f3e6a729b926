package chaos_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
)

// TestChaosBoundedReadFailsSafeUnderPartition: the bounded read
// spectrum's safety claim is that it never serves data staler than its
// bound — it falls back to a quorum read instead. This test attacks
// that claim with partitions:
//
//   - one replica stops applying writes, then heals holding a value
//     older than the bound. It holds no freshness lease, so bounded
//     reads must not serve its stale copy.
//   - a lease holder is partitioned: the read that chose it falls back
//     and passes it over, and the fallback's lease names only surviving
//     holders.
//
// Leases are timed on the client's clock; replicas keep none, so no
// replica clock can skew them.
//
// Every read in the test asserts the latest committed value: a single
// stale answer is a failed test, which is exactly the zero-violation
// guarantee the bench gates on.
func TestChaosBoundedReadFailsSafeUnderPartition(t *testing.T) {
	fabric := chaos.NewFabric(chaosSeed)
	defer fabric.Close()

	// Three nodes behind the fabric, no anti-entropy (heals must come
	// from quorum machinery, not a background sync racing the
	// assertions).
	var nodes []*pstore.Node
	var proxied []string
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("r%d", i)
		n, err := pstore.NewNode(pstore.Config{
			Daemon: daemon.Config{Name: "bounded" + name},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		nodes = append(nodes, n)
		if _, err := fabric.Proxy(name, n.Addr()); err != nil {
			t.Fatal(err)
		}
		proxied = append(proxied, fabric.Addr(name))
	}
	for i, n := range nodes {
		var peers []string
		for j, a := range proxied {
			if j != i {
				peers = append(peers, a)
			}
		}
		n.SetPeers(peers)
	}

	reg := telemetry.NewRegistry()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{
		DialTimeout:     300 * time.Millisecond,
		CallTimeout:     time.Second,
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

	const bound = 1200 * time.Millisecond
	mustRead := func(phase, want string) {
		t.Helper()
		val, _, ok, err := client.GetBoundedContext(context.Background(), "/bounded/a", bound)
		if err != nil || !ok {
			t.Fatalf("%s: bounded read failed: ok=%v err=%v", phase, ok, err)
		}
		if string(val) != want {
			t.Fatalf("%s: bounded read served %q, want %q — staleness bound violated", phase, val, want)
		}
	}

	// Healthy phase: the put's lease proves the single-replica path
	// actually engages.
	if _, err := client.Put("/bounded/a", []byte("a1")); err != nil {
		t.Fatal(err)
	}
	mustRead("healthy", "a1")
	if h := reg.Snapshot().Counter(pstore.MetricBoundedHits); h != 1 {
		t.Fatalf("healthy bounded read did not take the fast path (hits=%d)", h)
	}

	// Partition phase: cut r3 off, age the cluster past the bound,
	// commit a2 on the surviving majority, then heal r3 still holding
	// a1 — a copy now provably staler than the bound.
	fabric.Partition("r3")
	time.Sleep(bound + 300*time.Millisecond)
	if _, err := client.Put("/bounded/a", []byte("a2")); err != nil {
		t.Fatalf("quorum write under partition: %v", err)
	}
	fabric.Heal("r3")
	// The failed legs of that write opened r3's breaker; until its
	// cooldown admits a probe r3 still counts as unreachable, and the
	// next phase takes a second replica away.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := pool.Call(proxied[2], cmdlang.New("ping")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed r3 never answered through the pool")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		mustRead("healed-stale-replica", "a2")
	}

	// Holder phase: a quorum read pins which replica the next bounded
	// reads will choose (the lease's first holder).
	if _, _, _, err := client.GetContext(context.Background(), "/bounded/a"); err != nil {
		t.Fatalf("quorum read: %v", err)
	}
	_, _, holders, live := client.Leases().Holders("/bounded/a", bound)
	if !live {
		t.Fatal("quorum read granted no lease")
	}
	chosen := holders[0]
	name := fmt.Sprintf("r%d", slices.Index(proxied, chosen)+1)

	// The read that chose the partitioned holder falls back, correctly,
	// and passes that holder over.
	fabric.Partition(name)
	before := reg.Snapshot()
	mustRead("holder-partitioned", "a2")
	after := reg.Snapshot()
	if f, f0 := after.Counter(pstore.MetricBoundedFallbacks), before.Counter(pstore.MetricBoundedFallbacks); f != f0+1 {
		t.Fatalf("read through a partitioned holder did not fall back (fallbacks %d -> %d)", f0, f)
	}
	if p, p0 := after.Counter(pstore.MetricReadPassovers), before.Counter(pstore.MetricReadPassovers); p == p0 {
		t.Fatalf("the partitioned holder was not passed over (passovers %d -> %d)", p0, p)
	}
	// The fallback's quorum round granted the next lease, which lists
	// only replicas that answered it.
	if _, _, holders, live = client.Leases().Holders("/bounded/a", bound); !live || slices.Contains(holders, chosen) {
		t.Fatalf("lease after fallback: live=%v holders=%v, want survivors of %s only", live, holders, chosen)
	}
	// That lease already excludes the partitioned holder, so the very
	// next read is a hit from a surviving one.
	hitsBefore := reg.Snapshot().Counter(pstore.MetricBoundedHits)
	mustRead("holder-partitioned", "a2")
	if h := reg.Snapshot().Counter(pstore.MetricBoundedHits); h != hitsBefore+1 {
		t.Fatalf("bounded reads did not re-engage on a surviving holder (hits %d -> %d)", hitsBefore, h)
	}
	if v := reg.Snapshot().Counter(staleness.MetricViolations); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
}
