package pstore

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"ace/internal/daemon"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
)

// boundedClient builds a client over the cluster with an observable
// registry (NewPool's default registry is a no-op).
func boundedClient(t *testing.T, c *Cluster) (*Client, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: reg})
	t.Cleanup(pool.Close)
	client := NewClient(pool, c.Addrs())
	t.Cleanup(client.Close)
	return client, reg
}

// A healthy cluster serves bounded reads off the single-replica path:
// the quorum write grants a freshness lease to its ackers, so by the
// time the write returns, a holder set is provably fresh.
func TestBoundedReadHealthyClusterHits(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	client, reg := boundedClient(t, cluster)
	put, err := client.Put("/bounded/a", []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	val, ver, ok, err := client.GetBoundedContext(context.Background(), "/bounded/a", 2*time.Second)
	if err != nil || !ok || ver != put || !bytes.Equal(val, []byte("fresh")) {
		t.Fatalf("bounded get: val=%q ver=%d ok=%v err=%v", val, ver, ok, err)
	}
	snap := reg.Snapshot()
	if hits := snap.Counter(MetricBoundedHits); hits != 1 {
		t.Fatalf("bounded hits = %d, want 1", hits)
	}
	if v := snap.Counter(staleness.MetricViolations); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
	// A path never touched by quorum traffic holds no lease, so a
	// bounded miss cannot prove its bound — it falls back to quorum
	// and still answers correctly.
	_, _, ok, err = client.GetBoundedContext(context.Background(), "/bounded/missing", 2*time.Second)
	if ok || err != nil {
		t.Fatalf("bounded miss: ok=%v err=%v", ok, err)
	}
}

// A fresh client (no freshness leases) must not serve bounded reads —
// it falls back to quorum and still answers. The fallback itself is a
// quorum round, so it re-arms the bounded path for the next read.
func TestBoundedReadColdClientFallsBack(t *testing.T) {
	c, writer := startCluster(t, 3, "")
	if _, err := writer.Put("/bounded/cold", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reader, reg := boundedClient(t, c)
	val, _, ok, err := reader.GetBoundedContext(context.Background(), "/bounded/cold", 2*time.Second)
	if err != nil || !ok || string(val) != "v" {
		t.Fatalf("cold bounded get: val=%q ok=%v err=%v", val, ok, err)
	}
	snap := reg.Snapshot()
	if f := snap.Counter(MetricBoundedFallbacks); f != 1 {
		t.Fatalf("fallbacks = %d, want 1", f)
	}
	if h := snap.Counter(MetricBoundedHits); h != 0 {
		t.Fatalf("hits = %d, want 0", h)
	}
	// The quorum fallback granted a lease: the next bounded read can go
	// single-replica.
	if _, _, ok, err := reader.GetBoundedContext(context.Background(), "/bounded/cold", 2*time.Second); !ok || err != nil {
		t.Fatalf("warmed bounded get: ok=%v err=%v", ok, err)
	}
	if h := reg.Snapshot().Counter(MetricBoundedHits); h != 1 {
		t.Fatalf("warmed hits = %d, want 1", h)
	}
}

// Leases are timed on the client's own clock, so no bound is too tight
// for the replicas' clock-skew tolerance: bounded(100ms) straight after
// a quorum write is a lease hit.
func TestBoundedReadTightBoundIsLeaseHit(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	client, reg := boundedClient(t, cluster)
	if _, err := client.Put("/bounded/tight", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The lease dates from the put's start. On a host so slow that it
	// has already aged past 100ms the read falls back, and that quorum
	// round grants a fresh lease for the next try.
	for try := 0; ; try++ {
		val, _, ok, err := client.GetBoundedContext(context.Background(), "/bounded/tight", 100*time.Millisecond)
		if err != nil || !ok || string(val) != "v" {
			t.Fatalf("tight bounded get: val=%q ok=%v err=%v", val, ok, err)
		}
		if reg.Snapshot().Counter(MetricBoundedHits) == 1 {
			break
		}
		if try == 20 {
			t.Fatal("bounded(100ms) never hit a lease granted by the preceding quorum write")
		}
	}
	if v := reg.Snapshot().Counter(staleness.MetricViolations); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
}

// TestBoundedReadReplicaMissedWriteNeverServed: a replica that missed
// a quorum write to the read key keeps applying unrelated writes, so
// any per-replica freshness estimate judges it fresh. The lease proof
// is per-path, so the stale replica is simply never a holder for the
// key — bounded reads must return the newest committed value once the
// old lease ages out, with zero violations.
func TestBoundedReadReplicaMissedWriteNeverServed(t *testing.T) {
	cluster, _ := startCluster(t, 3, "") // no anti-entropy: the gap persists
	client, reg := boundedClient(t, cluster)
	addrs := cluster.Addrs()

	const bound = 700 * time.Millisecond
	// a1 commits everywhere; the client's lease covers its ackers.
	if _, err := client.Put("/bounded/gap", []byte("a1")); err != nil {
		t.Fatal(err)
	}
	// a2 commits on the first two replicas only: a second client scoped
	// to them has quorum 2, so the write succeeds without the third
	// replica ever seeing it.
	sidePool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry()})
	defer sidePool.Close()
	side := NewClient(sidePool, addrs[:2])
	defer side.Close()
	if _, err := side.Put("/bounded/gap", []byte("a2")); err != nil {
		t.Fatal(err)
	}
	// Age past the bound so a1 is now provably staler than Δ, while
	// filler writes keep every replica — including the stale one —
	// applying writes throughout.
	deadline := time.Now().Add(bound + 200*time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := client.Put("/bounded/filler", []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Every bounded read must now see a2: the a1 lease has expired, so
	// the first read falls back to a quorum (which sees a2 and grants a
	// fresh lease), and the rest are served only by proven a2 holders.
	for i := 0; i < 10; i++ {
		val, _, ok, err := client.GetBoundedContext(context.Background(), "/bounded/gap", bound)
		if err != nil || !ok {
			t.Fatalf("read %d: ok=%v err=%v", i, ok, err)
		}
		if string(val) != "a2" {
			t.Fatalf("read %d served stale %q — staleness bound violated", i, val)
		}
	}
	snap := reg.Snapshot()
	if v := snap.Counter(staleness.MetricViolations); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
	if h := snap.Counter(MetricBoundedHits); h == 0 {
		t.Fatal("bounded reads never re-engaged the single-replica path")
	}
}

// A delete retires the path's freshness lease immediately — before
// the tombstone even reaches a quorum — so bounded reads never
// consult holders that may still answer the old value.
func TestBoundedReadDeleteDropsLease(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	client, reg := boundedClient(t, cluster)
	if _, err := client.Put("/bounded/del", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := client.GetBoundedContext(context.Background(), "/bounded/del", 2*time.Second); !ok || err != nil {
		t.Fatalf("pre-delete bounded get: ok=%v err=%v", ok, err)
	}
	if err := client.Delete("/bounded/del"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := client.Leases().Holders("/bounded/del", time.Minute); ok {
		t.Fatal("delete left the freshness lease in place")
	}
	val, _, ok, err := client.GetBoundedContext(context.Background(), "/bounded/del", 2*time.Second)
	if err != nil || ok {
		t.Fatalf("deleted path still served: val=%q ok=%v err=%v", val, ok, err)
	}
	if v := reg.Snapshot().Counter(staleness.MetricViolations); v != 0 {
		t.Fatalf("violations = %d, want 0", v)
	}
}

// GetAny answers from one replica: the acknowledged value when it
// holds one, and a not-found that is final — no error — when it does
// not. It takes replicas in the quorum read's order, so its reads
// spread evenly over the replicas, and a stalled replica it asks first
// is hedged around rather than waited on for the call timeout.
func TestGetAnyHitAndMiss(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	const callTimeout = 5 * time.Second
	pool, reg := telemetryPool(t, callTimeout)
	client := NewClient(pool, cluster.Addrs())
	defer client.Close()
	put, err := client.Put("/bounded/d", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	// The put returned once two replicas held it, and may have cancelled
	// its last leg unsent; GetAny may ask any replica, so every one of
	// them gets the write before the read.
	for _, n := range cluster.Nodes {
		n.apply(Item{Path: "/bounded/d", Value: []byte("v"), Version: put})
	}
	val, ver, ok, err := client.GetAny("/bounded/d")
	if err != nil || !ok || ver != put || string(val) != "v" {
		t.Fatalf("any get: val=%q ver=%d ok=%v err=%v", val, ver, ok, err)
	}
	if _, _, ok, err := client.GetAny("/bounded/none"); ok || err != nil {
		t.Fatalf("any miss: ok=%v err=%v", ok, err)
	}
	checkReadSpread(t, cluster, client, reg, 1, func() error {
		if _, ver, ok, err := client.GetAny("/bounded/d"); err != nil || !ok || ver != put {
			return fmt.Errorf("ver=%d ok=%v err=%v", ver, ok, err)
		}
		return nil
	})

	// A fresh client's first read starts at its first replica.
	stall := startStallReplica(t)
	stalled := NewClient(pool, append([]string{stall.Addr()}, cluster.Addrs()...))
	defer stalled.Close()
	hedges := reg.Snapshot().Counter(MetricReadHedges)
	start := time.Now()
	if _, ver, ok, err := stalled.GetAny("/bounded/d"); err != nil || !ok || ver != put {
		t.Fatalf("any get past a stalled replica: ver=%d ok=%v err=%v", ver, ok, err)
	}
	if elapsed := time.Since(start); elapsed > callTimeout/10 {
		t.Fatalf("any get took %v with a stalled first replica (timeout %v): not hedged", elapsed, callTimeout)
	}
	if h := reg.Snapshot().Counter(MetricReadHedges); h != hedges+1 {
		t.Fatalf("%d hedges, want 1 for the stalled first replica", h-hedges)
	}
}

// TestBoundedReadSkipsPassedOverHolder: a bounded read takes a lease's
// passed-over holders last, as a quorum read takes passed-over
// replicas, so a lease naming a stalled replica first is served by the
// next holder instead of waiting out the call timeout on the first.
func TestBoundedReadSkipsPassedOverHolder(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	const callTimeout = 5 * time.Second
	pool, reg := telemetryPool(t, callTimeout)
	seed := NewClient(pool, cluster.Addrs())
	v, err := seed.Put("/skip/x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// A fresh client's first quorum read starts at the stalled replica,
	// hedges around it and passes it over.
	stall := startStallReplica(t)
	client := NewClient(pool, append([]string{stall.Addr()}, cluster.Addrs()...))
	defer client.Close()
	if _, ver, ok, err := client.Get("/skip/x"); err != nil || !ok || ver != v {
		t.Fatalf("hedged read: ver=%d ok=%v err=%v", ver, ok, err)
	}
	if client.passedOver[0].Load() <= time.Now().UnixNano() {
		t.Fatal("the stalled replica was not passed over")
	}
	// A lease whose fastest holder was the replica that has since
	// stalled.
	client.Leases().Grant("/skip/x", v, []int{0, 1, 2, 3}, time.Now())
	start := time.Now()
	val, ver, ok, err := client.GetBoundedContext(context.Background(), "/skip/x", 2*time.Second)
	if err != nil || !ok || ver != v || string(val) != "v" {
		t.Fatalf("bounded get: val=%q ver=%d ok=%v err=%v", val, ver, ok, err)
	}
	if elapsed := time.Since(start); elapsed > callTimeout/10 {
		t.Fatalf("bounded read took %v (timeout %v): it asked the passed-over holder first", elapsed, callTimeout)
	}
	if h := reg.Snapshot().Counter(MetricBoundedHits); h != 1 {
		t.Fatalf("bounded hits = %d, want 1 from the next holder", h)
	}
}

// TestViolatingHolderIsAskedLast: a lease holder answering below its
// lease's version has lost state. Besides the dropped lease and the
// quorum fallback, it is passed over, so the next quorum reads take it
// last.
func TestViolatingHolderIsAskedLast(t *testing.T) {
	cluster, err := StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, reg := telemetryPool(t, 5*time.Second)
	client := NewClient(pool, cluster.Addrs())
	defer client.Close()
	v, err := client.Put("/lost/x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	client.Close()      // the put's last leg has sent what it will
	cluster.SyncRound() // every replica holds v
	// A lease one version above what the first replica holds: its answer
	// is a regression.
	client.Leases().Grant("/lost/x", v+1, []int{0}, time.Now())
	if _, ver, ok, err := client.GetBoundedContext(context.Background(), "/lost/x", 2*time.Second); err != nil || !ok || ver != v {
		t.Fatalf("bounded get: ver=%d ok=%v err=%v", ver, ok, err)
	}
	if n := reg.Snapshot().Counter(staleness.MetricViolations); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
	marked := func(i int) bool { return client.passedOver[i].Load() > time.Now().UnixNano() }
	if !marked(0) {
		t.Fatal("the violating holder was not passed over")
	}
	// On a host so loaded that a healthy leg also outlasted the hedge
	// delay, that replica is passed over too, and one of the two must be
	// asked first.
	for i := range client.replicas {
		if legs := firstLegs(client); slices.Contains(legs, client.replicas[0]) && !marked(1) && !marked(2) {
			t.Fatalf("read %d after the violation asks %v first: the violating holder was not passed over", i, legs)
		}
	}
}

// Every bounded fallback is counted under exactly one cause, and the
// causes — violations included — sum to pstore.read.bounded_fallbacks.
// Each case plants the lease its read finds. A lease aging past the
// bound mid-flight needs a leg slower than the bound and is not driven
// here; it takes part in the sum.
func TestBoundedFallbackCauses(t *testing.T) {
	cluster, err := StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, reg := telemetryPool(t, 5*time.Second)
	client := NewClient(pool, cluster.Addrs())
	defer client.Close()
	v, err := client.Put("/cause/x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	cluster.SyncRound() // every replica holds v
	causes := []string{MetricFallbackNoLease, MetricFallbackAged, MetricFallbackLegFailed, MetricFallbackNoValue, staleness.MetricViolations, MetricFallbackExpired}
	plant := func(path string, version uint64, holders []int, at time.Time) {
		client.Leases().Drop(path)
		client.Leases().Grant(path, version, holders, at)
	}
	for _, tc := range []struct {
		name, cause, path string
		setup             func()
	}{
		{"no lease", MetricFallbackNoLease, "/cause/x", func() { client.Leases().Drop("/cause/x") }},
		{"aged", MetricFallbackAged, "/cause/x", func() {
			plant("/cause/x", v, []int{0, 1, 2}, time.Now().Add(-time.Minute))
		}},
		{"holder holds nothing", MetricFallbackNoValue, "/cause/none", func() {
			plant("/cause/none", v, []int{0}, time.Now())
		}},
		{"holder below the lease", staleness.MetricViolations, "/cause/x", func() {
			plant("/cause/x", v+1, []int{0}, time.Now())
		}},
		{"holder's leg failed", MetricFallbackLegFailed, "/cause/x", func() {
			cluster.Nodes[2].Stop()
			plant("/cause/x", v, []int{2}, time.Now())
		}},
	} {
		before := reg.Snapshot()
		tc.setup()
		if _, _, _, err := client.GetBoundedContext(context.Background(), tc.path, 2*time.Second); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after := reg.Snapshot()
		moved := func(name string) int64 { return after.Counter(name) - before.Counter(name) }
		if n := moved(MetricBoundedFallbacks); n != 1 {
			t.Errorf("%s: %d fallbacks, want 1", tc.name, n)
		}
		for _, c := range causes {
			want := int64(0)
			if c == tc.cause {
				want = 1
			}
			if n := moved(c); n != want {
				t.Errorf("%s: %s moved by %d, want %d", tc.name, c, n, want)
			}
		}
	}
	snap := reg.Snapshot()
	var sum int64
	for _, c := range causes {
		sum += snap.Counter(c)
	}
	if f := snap.Counter(MetricBoundedFallbacks); f != sum || f == 0 {
		t.Fatalf("fallbacks = %d, causes sum to %d", f, sum)
	}
}
