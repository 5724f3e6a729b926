package pstore

// Unit tests for the streaming quorum fast-path: the winner is fixed
// as soon as a majority has answered, a read asks only a majority and
// launches a spare for a failed or stalled leg, stragglers are
// cancelled rather than ridden to their timeout, malformed replicas
// (negative versions, bogus list replies) are failures instead of
// quorum members, and background read repair is bounded.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// startStallReplica runs a daemon speaking the replica protocol whose
// every request blocks until the returned release channel is closed —
// an in-process stand-in for a blackholed replica. The release is
// registered as a cleanup so a stuck handler can't wedge shutdown.
func startStallReplica(t *testing.T) *daemon.Daemon {
	t.Helper()
	release := make(chan struct{})
	d := daemon.New(daemon.Config{Name: "stall_replica"})
	block := func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		<-release
		return cmdlang.Fail(cmdlang.CodeUnavailable, "stalled"), nil
	}
	for _, verb := range []string{"psget", "psput", "psdel", "pslist"} {
		d.Handle(cmdlang.CommandSpec{Name: verb, AllowExtra: true}, block)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	t.Cleanup(func() { close(release) }) // LIFO: unblocks handlers before d.Stop
	return d
}

// telemetryPool builds a pool with a registry (so pstore.* instruments
// are observable) and a deliberately long call timeout: if the fast
// path ever waits for a straggler, the timing assertions blow up.
func telemetryPool(t *testing.T, callTimeout time.Duration) (*daemon.Pool, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{
		CallTimeout: callTimeout,
		MaxRetries:  -1,
		Seed:        1,
		Telemetry:   reg,
	})
	t.Cleanup(pool.Close)
	return pool, reg
}

// TestFastPathDecidesBeforeStraggler: with two healthy replicas and
// one that never answers, quorum Get and Put decide at the healthy
// majority in a fraction of the call timeout, and the stalled replica's
// cancelled call does not keep Close waiting for the timeout either.
// Reads and writes both ask a majority, from the client's rotation: the
// read, first, asks the healthy pair, and the write, second, asks the
// stalled replica and is hedged around it. Either way a fan-out has
// exactly one straggler per hedge.
func TestFastPathDecidesBeforeStraggler(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	const callTimeout = 5 * time.Second
	pool, reg := telemetryPool(t, callTimeout)

	// Seed through the healthy pair (its own majority).
	seed := NewClient(pool, cluster.Addrs())
	v1, err := seed.Put("/fp/x", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	stall := startStallReplica(t)
	mixed := NewClient(pool, append(cluster.Addrs(), stall.Addr()))

	start := time.Now()
	got, ver, ok, err := mixed.Get("/fp/x")
	if err != nil || !ok || ver != v1 || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("fast-path read: got=%q ver=%d ok=%v err=%v", got, ver, ok, err)
	}
	if _, err := mixed.Put("/fp/x", []byte("v2")); err != nil {
		t.Fatalf("fast-path write: %v", err)
	}
	// The straggler's calls were cancelled, so draining them is quick:
	// read + write + drain all land far inside the call timeout.
	mixed.Close()
	if elapsed := time.Since(start); elapsed > callTimeout/2 {
		t.Fatalf("read+write+drain took %v with a stalled replica (timeout %v); stragglers not cancelled", elapsed, callTimeout)
	}

	snap := reg.Snapshot()
	if n, h := snap.Counter(MetricReadStragglers), snap.Counter(MetricReadHedges); n != h {
		t.Errorf("read stragglers = %d, hedges = %d: a read asks a majority, so only a leg hedged around straggles", n, h)
	}
	if n, h := snap.Counter(MetricWriteStragglers), snap.Counter(MetricWriteHedges); n != h || n < 1 {
		t.Errorf("write stragglers = %d, hedges = %d: the write asks the stalled replica, and only a leg hedged around straggles", n, h)
	}
	if hp, ok := snap.Histogram(MetricReadLatencyFull); !ok || hp.Count < 1 {
		t.Errorf("full-fanout read latency not observed: %+v ok=%v", hp, ok)
	}
	if hp, ok := snap.Histogram(MetricWriteLatencyFull); !ok || hp.Count < 1 {
		t.Errorf("full-fanout write latency not observed: %+v ok=%v", hp, ok)
	}
}

// holdsSoon waits up to a second for node to hold version at path.
func holdsSoon(node *Node, path string, version uint64) bool {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if it, ok := node.get(path); ok && it.Version == version {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// TestWriteAsksAQuorumAndTellsTheRest: a write asks a majority, as a
// read does, and sends the other replica the same command unnumbered,
// so every replica is sent every write and only a majority answers it.
// On a healthy cluster whose connections are pooled a put writes three
// frames and reads two replies, and the told replica holds the write
// soon after. A replica the pool holds no connection to cannot be told
// and is asked instead, and a stalled replica that a write asks is
// covered by a spare at hedgeAfter and passed over. On disks whose
// flushes take several hedgeAfters a write is not hedged for that.
func TestWriteAsksAQuorumAndTellsTheRest(t *testing.T) {
	t.Run("healthy", func(t *testing.T) {
		cluster, err := StartCluster(3, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.StopAll)
		pool, reg := telemetryPool(t, 5*time.Second)
		for _, addr := range cluster.Addrs() {
			if _, err := pool.Call(addr, cmdlang.New("ping")); err != nil {
				t.Fatal(err)
			}
		}
		client := NewClient(pool, cluster.Addrs())
		defer client.Close()
		// Puts are counted in batches, and only batches no put of which
		// hedged, as checkReadSpread counts reads: a reply to a leg a
		// dropped batch hedged around may still arrive in a later one.
		const batch, batches = 10, 5
		var puts, sent, recv, dropped int64
		for kept, tries := 0, 0; kept < batches; tries++ {
			if tries == 10*batches {
				t.Fatalf("%d of %d batches of %d puts on a healthy cluster hedged", tries-kept, tries, batch)
			}
			before := reg.Snapshot()
			versions := make([]uint64, batch)
			for i := range versions {
				if versions[i], err = client.Put(fmt.Sprintf("/tell/%d/%d", tries, i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			client.Close()
			after := reg.Snapshot()
			if hedges := after.Counter(MetricWriteHedges) - before.Counter(MetricWriteHedges); hedges > 0 {
				dropped += hedges
				for i := range client.passedOver {
					client.passedOver[i].Store(0)
				}
				continue
			}
			kept++
			puts += batch
			sent += after.Counter(wire.MetricFramesSent) - before.Counter(wire.MetricFramesSent)
			recv += after.Counter(wire.MetricFramesRecv) - before.Counter(wire.MetricFramesRecv)
			for i, v := range versions {
				for j, node := range cluster.Nodes {
					if !holdsSoon(node, fmt.Sprintf("/tell/%d/%d", tries, i), v) {
						t.Fatalf("replica %d does not hold put %d of batch %d", j, i, tries)
					}
				}
			}
		}
		if sent != 3*puts {
			t.Errorf("%d frames written for %d puts, want 3 a put", sent, puts)
		}
		if recv < 2*puts || recv > 2*puts+dropped {
			t.Errorf("%d replies read for %d puts (%d spares dropped), want 2 a put", recv, puts, dropped)
		}
		if n := reg.Snapshot().Counter(MetricWriteStragglers); n != dropped {
			t.Errorf("%d write stragglers, %d hedges: only a leg hedged around straggles", n, dropped)
		}
	})
	t.Run("unpooled replica is asked, stalled one hedged around", func(t *testing.T) {
		cluster, err := StartCluster(2, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.StopAll)
		const callTimeout = 5 * time.Second
		pool, reg := telemetryPool(t, callTimeout)
		stall := startStallReplica(t)
		healthy, unpooled := cluster.Nodes[0], cluster.Nodes[1]
		for _, addr := range []string{healthy.Addr(), stall.Addr()} {
			if _, err := pool.Call(addr, cmdlang.New("ping")); err != nil {
				t.Fatal(err)
			}
		}
		client := NewClient(pool, []string{healthy.Addr(), stall.Addr(), unpooled.Addr()})
		defer client.Close()

		// The first write asks the healthy and the stalled replica, and
		// cannot tell the third, which has no pooled connection: it is
		// asked too, on the blocking path, and its ack makes the quorum.
		// With every replica asked there is nothing to hedge.
		v1, err := client.Put("/tell/x", []byte("v1"))
		if err != nil {
			t.Fatal(err)
		}
		if !holdsSoon(unpooled, "/tell/x", v1) {
			t.Fatal("the replica with no pooled connection does not hold the write")
		}
		snap := reg.Snapshot()
		if n := snap.Counter(MetricFanoutBlockingLegs); n != 1 {
			t.Fatalf("%d blocking legs, want 1: the leg to the unpooled replica", n)
		}
		if n := snap.Counter(MetricWriteHedges); n != 0 {
			t.Fatalf("%d write hedges for a write that asked every replica", n)
		}

		// The second write asks the stalled replica and the third, now
		// pooled, and tells the healthy one. At hedgeAfter the stalled
		// replica is passed over and the healthy one asked: its copy is a
		// re-delivery, acked at once.
		start := time.Now()
		v2, err := client.Put("/tell/x", []byte("v2"))
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed < hedgeAfter || elapsed > callTimeout/10 {
			t.Fatalf("write with a stalled replica asked took %v, want hedgeAfter %v and far under the call timeout", elapsed, hedgeAfter)
		}
		if n := reg.Snapshot().Counter(MetricWriteHedges); n != 1 {
			t.Fatalf("%d write hedges, want 1 for the stalled replica", n)
		}
		if client.passedOver[1].Load() <= time.Now().UnixNano() {
			t.Fatal("the stalled replica was not passed over")
		}
		for _, node := range cluster.Nodes {
			if !holdsSoon(node, "/tell/x", v2) {
				t.Fatalf("%s does not hold the second write", node.Addr())
			}
		}
		client.Close()
		if n, h := reg.Snapshot().Counter(MetricWriteStragglers), reg.Snapshot().Counter(MetricWriteHedges); n != h+1 {
			t.Fatalf("%d write stragglers, %d hedges: want one a hedge and the first write's stalled leg", n, h)
		}
	})
	t.Run("slow disks are not hedged around", func(t *testing.T) {
		const flush = 5 * hedgeAfter
		dir := t.TempDir()
		var addrs []string
		for i := range 3 {
			node, err := NewNode(Config{
				Daemon:  daemon.Config{Name: fmt.Sprintf("slow%d", i)},
				Dir:     dir,
				Storage: storage.Options{FS: gatedFS{cacheFS{storage.OS}, &flushGate{slow: flush}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(node.Stop)
			addrs = append(addrs, node.Addr())
		}
		pool, reg := telemetryPool(t, 5*time.Second)
		for _, addr := range addrs {
			if _, err := pool.Call(addr, cmdlang.New("ping")); err != nil {
				t.Fatal(err)
			}
		}
		client := NewClient(pool, addrs)
		defer client.Close()
		// Every put waits out two flushes, each past hedgeAfter. A write
		// hedged on a read's timer would hedge every one of them; one
		// hedged on its first ack only when a flush took twice its peer's,
		// which a busy host may do now and then.
		const puts = 20
		for i := range puts {
			if _, err := client.Put(fmt.Sprintf("/slow/%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		snap := reg.Snapshot()
		if n := snap.Counter(MetricWriteHedges); n > puts/5 {
			t.Errorf("%d of %d puts on healthy slow disks hedged", n, puts)
		}
		if n := snap.Counter(MetricReadPassovers); n > puts/5 {
			t.Errorf("%d pass-overs in %d puts on healthy slow disks", n, puts)
		}
	})
}

// firstLegs returns the replicas the next quorum read of c asks before
// any spare, advancing c's rotation as that read would.
func firstLegs(c *Client) []string {
	f := c.streamFanout(context.Background(), 0, nil, nil, nil)
	var legs []string
	for _, l := range f.legs[:c.Quorum()] {
		legs = append(legs, c.replicas[l.idx])
	}
	return legs
}

// TestQuorumReadAsksAMajority: on a healthy cluster a quorum read sends
// one psget to each of a majority of the replicas and no more, and the
// client's rotation spreads its reads evenly over the replicas.
func TestQuorumReadAsksAMajority(t *testing.T) {
	cluster, err := StartCluster(3, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, reg := telemetryPool(t, 5*time.Second)
	client := NewClient(pool, cluster.Addrs())
	defer client.Close()
	v, err := client.Put("/majority/x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	cluster.SyncRound() // every replica holds v, so no read repairs
	checkReadSpread(t, cluster, client, reg, client.Quorum(), func() error {
		if _, ver, ok, err := client.Get("/majority/x"); err != nil || !ok || ver != v {
			return fmt.Errorf("ver=%d ok=%v err=%v", ver, ok, err)
		}
		return nil
	})
}

// checkReadSpread runs 300 reads through client on a healthy cluster
// that holds what they read, and checks that each sends exactly legs
// psget frames and that the replicas serve them evenly, each within
// ± 20 % of its share. Reads are counted in batches, and only batches
// no read of which hedged: on a loaded host a read now and then
// outlasts the hedge delay, asks a spare, and has the replica it
// waited on passed over, which is the mechanism working, not the
// rotation. Such a batch is dropped and the marks it left are cleared;
// a spare it cancelled after sending may still reach its replica
// during a later batch. The count starts once the client's earlier
// writes have sent what they will — a put returns on a majority, and
// its cancelled last leg may still be dialing and writing — and with
// no replica passed over by an earlier read that hedged.
func checkReadSpread(t *testing.T, cluster *Cluster, client *Client, reg *telemetry.Registry, legs int, read func() error) {
	t.Helper()
	client.Close()
	clearPassOvers := func() {
		for i := range client.passedOver {
			client.passedOver[i].Store(0)
		}
	}
	clearPassOvers()
	psgets := func() []int64 {
		served := make([]int64, len(cluster.Nodes))
		for i, n := range cluster.Nodes {
			served[i] = n.Telemetry().Histogram(daemon.MetricDispatchPrefix + "psget").Count()
		}
		return served
	}
	const batch, batches = 30, 10
	served := make([]int64, len(cluster.Nodes))
	var frames, dropped int64
	for kept, tries := 0, 0; kept < batches; tries++ {
		if tries == 10*batches {
			t.Fatalf("%d of %d batches of %d reads on a healthy cluster hedged", tries-kept, tries, batch)
		}
		before, snap := psgets(), reg.Snapshot()
		for i := 0; i < batch; i++ {
			if err := read(); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		client.Close()
		after := reg.Snapshot()
		if hedges := after.Counter(MetricReadHedges) - snap.Counter(MetricReadHedges); hedges > 0 {
			dropped += hedges
			clearPassOvers()
			continue
		}
		kept++
		frames += after.Counter(wire.MetricFramesSent) - snap.Counter(wire.MetricFramesSent)
		for i, n := range psgets() {
			served[i] += n - before[i]
		}
	}

	const reads = batch * batches
	want := int64(reads * legs)
	if frames != want {
		t.Errorf("%d frames sent for %d reads, want %d", frames, reads, want)
	}
	var total int64
	even := want / int64(len(cluster.Nodes))
	for i, n := range served {
		total += n
		if n < even*8/10 || n > even*12/10 {
			t.Errorf("replica %d served %d psgets, want %d ± 20%%", i, n, even)
		}
	}
	if total < want || total > want+dropped {
		t.Errorf("replicas served %d psgets for %d reads (%d spares dropped), want %d", total, reads, dropped, want)
	}
}

// TestFailedLegLaunchesSpareAtOnce: a leg that fails launches the
// spare straight away. Waiting for the hedge delay instead would put
// hedgeAfter into every read that asks the failing replica.
func TestFailedLegLaunchesSpareAtOnce(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, reg := telemetryPool(t, 5*time.Second)
	seed := NewClient(pool, cluster.Addrs())
	v, err := seed.Put("/spare/x", []byte("v")) // quorum 2 of 2: both hold it
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	var asked atomic.Int64
	refuser := daemon.New(daemon.Config{Name: "refusing_replica"})
	refuser.Handle(cmdlang.CommandSpec{Name: "psget", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			asked.Add(1)
			return cmdlang.Fail(cmdlang.CodeUnavailable, "refusing"), nil
		})
	if err := refuser.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(refuser.Stop)
	mixed := NewClient(pool, append(cluster.Addrs(), refuser.Addr()))
	defer mixed.Close()

	// The refusal is an answer, so the refuser is never passed over and
	// stays in two of every three reads' first legs.
	fastest, asking := time.Hour, 0
	for i := 0; i < 60; i++ {
		before := asked.Load()
		start := time.Now()
		_, ver, ok, err := mixed.Get("/spare/x")
		elapsed := time.Since(start)
		if err != nil || !ok || ver != v {
			t.Fatalf("read %d: ver=%d ok=%v err=%v", i, ver, ok, err)
		}
		if asked.Load() > before {
			asking++
			fastest = min(fastest, elapsed)
		}
	}
	if asking == 0 {
		t.Fatal("no read asked the failing replica")
	}
	if fastest >= hedgeAfter {
		t.Fatalf("all %d reads that asked the failing replica took %v or more (fastest %v): the spare waited for the hedge", asking, hedgeAfter, fastest)
	}
	if h := reg.Snapshot().Counter(MetricReadHedges); h < int64(asking) {
		t.Fatalf("%d hedges for %d reads that met a failed leg", h, asking)
	}
}

// TestStalledReplicaIsHedgedAroundAndPassedOver: a read whose first
// legs include a replica that never answers is decided by a spare after
// the hedge delay, far inside the call timeout, and the reads after it
// take the stalled replica last instead of waiting on it again.
func TestStalledReplicaIsHedgedAroundAndPassedOver(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	const callTimeout = 5 * time.Second
	pool, reg := telemetryPool(t, callTimeout)
	seed := NewClient(pool, cluster.Addrs())
	v, err := seed.Put("/hedge/x", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	// A fresh client's first read starts at its first replica.
	stall := startStallReplica(t)
	mixed := NewClient(pool, append([]string{stall.Addr()}, cluster.Addrs()...))
	defer mixed.Close()
	start := time.Now()
	if _, ver, ok, err := mixed.Get("/hedge/x"); err != nil || !ok || ver != v {
		t.Fatalf("hedged read: ver=%d ok=%v err=%v", ver, ok, err)
	}
	if elapsed := time.Since(start); elapsed > callTimeout/10 {
		t.Fatalf("read took %v with a stalled first leg (timeout %v): not hedged", elapsed, callTimeout)
	}
	if h := reg.Snapshot().Counter(MetricReadHedges); h != 1 {
		t.Fatalf("%d hedges, want 1 for the stalled first leg", h)
	}
	marked := func(i int) bool { return mixed.passedOver[i].Load() > time.Now().UnixNano() }
	if !marked(0) {
		t.Fatal("the stalled replica was not passed over")
	}
	// On a host so loaded that a healthy first leg also outlasted the
	// hedge delay, that replica is passed over too, and one of the two
	// must be asked first.
	for i := range mixed.replicas {
		if legs := firstLegs(mixed); slices.Contains(legs, stall.Addr()) && !marked(1) && !marked(2) {
			t.Fatalf("read %d after the hedge asks %v first: the stalled replica was not passed over", i, legs)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ver, ok, err := mixed.Get("/hedge/x"); err != nil || !ok || ver != v {
			t.Fatalf("read %d after the hedge: ver=%d ok=%v err=%v", i, ver, ok, err)
		}
	}
	mixed.Close()
	snap := reg.Snapshot()
	if n, h := snap.Counter(MetricReadStragglers), snap.Counter(MetricReadHedges); n != h {
		t.Fatalf("read stragglers = %d, hedges = %d: only a leg hedged around straggles", n, h)
	}
}

// startNegativeVersionReplica runs a rogue replica that answers every
// read with version=-1 — the corrupt reply that used to wrap to
// ~1.8e19 and win every quorum.
func startNegativeVersionReplica(t *testing.T) *daemon.Daemon {
	t.Helper()
	d := daemon.New(daemon.Config{Name: "negative_replica"})
	corrupt := func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return cmdlang.OK().SetBytes("value", []byte("aa")).SetInt("version", -1), nil
	}
	d.Handle(cmdlang.CommandSpec{Name: "psget", AllowExtra: true}, corrupt)
	d.Handle(cmdlang.CommandSpec{Name: "psput", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.OK().SetBool("applied", true), nil
		})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestNegativeVersionIsCorruptReplica: a replica answering
// version=-1 must be treated exactly like one answering a value that is
// not a byte string — a
// failed replica that neither wins the read nor, refusing a write,
// drags the writer's version up.
func TestNegativeVersionIsCorruptReplica(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, _ := telemetryPool(t, time.Second)

	seed := NewClient(pool, cluster.Addrs())
	v1, err := seed.Put("/neg/x", []byte("truth"))
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()

	rogue := startNegativeVersionReplica(t)
	mixed := NewClient(pool, append(cluster.Addrs(), rogue.Addr()))
	defer mixed.Close()

	got, ver, ok, err := mixed.Get("/neg/x")
	if err != nil || !ok || ver != v1 || !bytes.Equal(got, []byte("truth")) {
		t.Fatalf("negative-version replica skewed the read: got=%q ver=%d ok=%v err=%v", got, ver, ok, err)
	}
	// A fresh client's first GetAny asks the rogue (listed first here):
	// its failed leg launches a spare instead of returning the wrapped
	// version, and passes the rogue over for the reads after it.
	any := NewClient(pool, append([]string{rogue.Addr()}, cluster.Addrs()...))
	defer any.Close()
	got, ver, ok, err = any.GetAny("/neg/x")
	if err != nil || !ok || ver != v1 || !bytes.Equal(got, []byte("truth")) {
		t.Fatalf("GetAny trusted a negative version: got=%q ver=%d ok=%v err=%v", got, ver, ok, err)
	}
	if any.passedOver[0].Load() <= time.Now().UnixNano() {
		t.Fatal("GetAny did not pass the corrupt replica over")
	}
}

// TestNegativeConflictVersionIsAFailedLeg: a replica refusing a write
// with version=-1 is a failed replica, not a conflict at ~1.8e19 that
// the writer would merge into its clock and retry above.
func TestNegativeConflictVersionIsAFailedLeg(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, reg := telemetryPool(t, time.Second)
	rogue := daemon.New(daemon.Config{Name: "negative_refuser"})
	rogue.Handle(cmdlang.CommandSpec{Name: "psput", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.OK().SetBool("applied", false).SetInt("version", -1), nil
		})
	if err := rogue.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Stop)
	mixed := NewClient(pool, append(cluster.Addrs(), rogue.Addr()))
	defer mixed.Close()
	before := uint64(mixed.clock.Now())
	for i := 0; i < 20; i++ { // whichever two replicas decide the round
		v, err := mixed.Put("/neg/y", []byte("truth"))
		if err != nil {
			t.Fatal(err)
		}
		if v-before > 1<<40 { // hours of stamps ahead
			t.Fatalf("version %d: the writer's clock was dragged up from %d", v, before)
		}
	}
	if n := reg.Snapshot().Counter(MetricWriteConflicts); n != 0 {
		t.Fatalf("%d conflict rounds; a corrupt refusal is not a conflict", n)
	}
}

// TestNodeRejectsNegativeVersions: the store node itself refuses
// negative versions on psput/psdel, and anti-entropy refuses a peer
// advertising them, or a digest whose vectors differ in length. A
// data-plane command carrying a routing stamp (epoch=) is refused
// too: the store routes nothing.
func TestNodeRejectsNegativeVersions(t *testing.T) {
	cluster, _ := startCluster(t, 1, "")
	addr := cluster.Nodes[0].Addr()
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)

	put := cmdlang.New("psput").SetString("path", "/neg/n").SetBytes("value", []byte("aa")).SetInt("version", -5)
	if _, err := pool.Call(addr, put); !cmdlang.IsRemoteCode(err, cmdlang.CodeBadArgument) {
		t.Fatalf("psput version=-5: err=%v, want bad_argument", err)
	}
	del := cmdlang.New("psdel").SetString("path", "/neg/n").SetInt("version", -5)
	if _, err := pool.Call(addr, del); !cmdlang.IsRemoteCode(err, cmdlang.CodeBadArgument) {
		t.Fatalf("psdel version=-5: err=%v, want bad_argument", err)
	}
	for _, cmd := range []*cmdlang.CmdLine{
		cmdlang.New("psget").SetString("path", "/neg/n"),
		cmdlang.New("psput").SetString("path", "/neg/n").SetBytes("value", []byte("aa")).SetInt("version", 1),
		cmdlang.New("psdel").SetString("path", "/neg/n").SetInt("version", 1),
	} {
		if _, err := pool.Call(addr, cmd.SetInt("epoch", 1)); !cmdlang.IsRemoteCode(err, cmdlang.CodeBadArgument) {
			t.Fatalf("%s epoch=1: err=%v, want bad_argument", cmd.Name(), err)
		}
	}

	// A peer whose digest advertises a negative version aborts the
	// sync pull instead of propagating the poison; so does one whose
	// digest is malformed.
	for name, versions := range map[string]cmdlang.Value{
		"negative": cmdlang.IntVector(-3),
		"short":    cmdlang.IntVector(),
	} {
		rogue := daemon.New(daemon.Config{Name: name + "_peer"})
		rogue.Handle(cmdlang.CommandSpec{Name: "psdigest", AllowExtra: true},
			func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				return cmdlang.OK().
					Set("paths", cmdlang.StringVector("/neg/p")).
					Set("versions", versions), nil
			})
		if err := rogue.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rogue.Stop)
		if _, err := cluster.Nodes[0].SyncWith(rogue.Addr()); err == nil {
			t.Fatalf("SyncWith accepted a %s digest", name)
		}
	}
}

// TestReadRepairBoundedAndDropped: when the repair concurrency bound
// is exhausted, further repairs are dropped and counted instead of
// piling up goroutines.
func TestReadRepairBoundedAndDropped(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	pool, reg := telemetryPool(t, time.Second)
	client := NewClient(pool, cluster.Addrs())

	v1, err := client.Put("/rrb", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Advance replica 1 only, leaving replica 2 stale at v1, and make
	// the third replica a stall: the read quorum is then guaranteed to
	// be {fresh, stale}, so the stale laggard is seen at decision time
	// (a cancelled straggler's reply might lose the race and never be
	// repair-eligible — this arrangement is deterministic).
	if !cluster.Nodes[0].apply(Item{Path: "/rrb", Value: []byte("v2"), Version: v1 + 1}) {
		t.Fatal("direct apply failed")
	}
	stall := startStallReplica(t)
	mixed := NewClient(pool, append(cluster.Addrs(), stall.Addr()))
	defer mixed.Close()

	// Saturate the repair semaphore: the read below must drop its
	// repair rather than block or exceed the bound.
	for i := 0; i < cap(mixed.repairSem); i++ {
		mixed.repairSem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(mixed.repairSem); i++ {
			<-mixed.repairSem
		}
	}()

	if _, ver, ok, err := mixed.Get("/rrb"); err != nil || !ok || ver != v1+1 {
		t.Fatalf("read: ver=%d ok=%v err=%v", ver, ok, err)
	}
	// The stale quorum member's repair was attempted (and dropped)
	// before Get returned.
	if got := reg.Snapshot().Counter(MetricRepairsDropped); got < 1 {
		t.Fatalf("repairs dropped = %d, want >= 1", got)
	}
	if got := reg.Snapshot().Counter(MetricReadRepairs); got != 0 {
		t.Fatalf("repairs started despite saturated bound: %d", got)
	}
}

// TestListCountsOnlyWellFormedReplies: a replica whose pslist reply is
// malformed is failed, not counted as an (empty) reachable member,
// and the probes run through the fan-out rather than sequentially.
func TestListCountsOnlyWellFormedReplies(t *testing.T) {
	pool, _ := telemetryPool(t, time.Second)

	rogue := daemon.New(daemon.Config{Name: "bogus_list_replica"})
	rogue.Handle(cmdlang.CommandSpec{Name: "pslist", AllowExtra: true},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			// count disagrees with the paths vector: malformed.
			return cmdlang.OK().SetInt("count", 3).Set("paths", cmdlang.StringVector("/bogus")), nil
		})
	if err := rogue.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Stop)

	// Only the malformed replica: List must report nothing reachable.
	alone := NewClient(pool, []string{rogue.Addr()})
	defer alone.Close()
	if _, err := alone.List("/"); err == nil {
		t.Fatal("List counted a malformed reply as reachable")
	}

	// Malformed replica alongside healthy ones: the union is served by
	// the healthy set and the bogus path never appears.
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	seed := NewClient(pool, cluster.Addrs())
	defer seed.Close()
	if _, err := seed.Put("/l/a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	mixed := NewClient(pool, append(cluster.Addrs(), rogue.Addr()))
	defer mixed.Close()
	paths, err := mixed.List("/l/")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "/l/a" {
		t.Fatalf("paths = %v, want [/l/a]", paths)
	}
}

// TestFastPathFailsClosedPromptly: once enough replicas have failed
// that a quorum is impossible, the operation fails immediately — it
// does not wait for the remaining replicas to resolve.
func TestFastPathFailsClosedPromptly(t *testing.T) {
	cluster, err := StartCluster(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	const callTimeout = 5 * time.Second
	pool, _ := telemetryPool(t, callTimeout)

	// One live node plus two dead addresses: once the second dead
	// replica fails, a quorum of 2/3 is arithmetically impossible and
	// the call must fail right then, not after the call timeout.
	dead1 := daemon.New(daemon.Config{Name: "dead1"})
	if err := dead1.Start(); err != nil {
		t.Fatal(err)
	}
	dead1Addr := dead1.Addr()
	dead1.Stop()
	dead2 := daemon.New(daemon.Config{Name: "dead2"})
	if err := dead2.Start(); err != nil {
		t.Fatal(err)
	}
	dead2Addr := dead2.Addr()
	dead2.Stop()

	client := NewClient(pool, []string{cluster.Nodes[0].Addr(), dead1Addr, dead2Addr})
	defer client.Close()
	start := time.Now()
	if _, _, _, err := client.Get("/ff/x"); err == nil {
		t.Fatal("minority read reported a quorum")
	}
	if _, err := client.Put("/ff/x", []byte("v")); err == nil {
		t.Fatal("minority write succeeded")
	}
	if elapsed := time.Since(start); elapsed > callTimeout/2 {
		t.Fatalf("fail-closed took %v; not prompt", elapsed)
	}
}

// TestDataRepliesCarryOnlyTheirOwnArguments pins the reply shape of
// the five data and anti-entropy verbs: the per-reply node watermark
// is gone, so any argument beyond these is wire bytes nobody reads.
func TestDataRepliesCarryOnlyTheirOwnArguments(t *testing.T) {
	cluster, _ := startCluster(t, 1, "")
	pool := daemon.NewPool(nil)
	defer pool.Close()
	addr := cluster.Addrs()[0]
	for _, tc := range []struct {
		cmd  *cmdlang.CmdLine
		want []string
	}{
		{cmdlang.New("psput").SetString("path", "/shape/a").SetBytes("value", []byte("aa")).SetInt("version", 1), []string{"applied", "version"}},
		{cmdlang.New("psget").SetString("path", "/shape/a"), []string{"value", "version"}},
		{cmdlang.New("psfetch").SetString("path", "/shape/a"), []string{"deleted", "value", "version"}},
		{cmdlang.New("psdigest"), []string{"paths", "versions"}},
		{cmdlang.New("psdel").SetString("path", "/shape/a").SetInt("version", 2), []string{"applied", "version"}},
	} {
		reply, err := pool.Call(addr, tc.cmd)
		if err != nil {
			t.Fatalf("%s: %v", tc.cmd.Name(), err)
		}
		reply.Del("seq") // the wire layer's own argument, on every reply
		if got := reply.SortedArgNames(); !slices.Equal(got, tc.want) {
			t.Errorf("%s reply arguments = %v, want %v", tc.cmd.Name(), got, tc.want)
		}
	}
}

// TestClientAcceptsRepliesFromWatermarkingNode: replicas built before
// the watermark was removed still attach hlc=<stamp> to every reply. A
// new client reads, writes and takes lease hits through them.
func TestClientAcceptsRepliesFromWatermarkingNode(t *testing.T) {
	oldReply := func(text string) func(*daemon.Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return func(*daemon.Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.Parse(text)
		}
	}
	var addrs []string
	for i := 0; i < 3; i++ {
		d := daemon.New(daemon.Config{Name: fmt.Sprintf("old_replica%d", i)})
		d.Handle(cmdlang.CommandSpec{Name: "psget", AllowExtra: true},
			oldReply(`ok value=#3:old version=4 hlc=1893456000000;`))
		d.Handle(cmdlang.CommandSpec{Name: "psput", AllowExtra: true},
			oldReply(`ok applied=true version=5 hlc=1893456000000;`))
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		addrs = append(addrs, d.Addr())
	}
	pool, reg := telemetryPool(t, time.Second)
	client := NewClient(pool, addrs)
	defer client.Close()
	if val, ver, ok, err := client.Get("/old/x"); err != nil || !ok || ver != 4 || string(val) != "old" {
		t.Fatalf("quorum get through old replicas: val=%q ver=%d ok=%v err=%v", val, ver, ok, err)
	}
	if val, _, ok, err := client.GetBoundedContext(context.Background(), "/old/x", 2*time.Second); err != nil || !ok || string(val) != "old" {
		t.Fatalf("bounded get through old replicas: val=%q ok=%v err=%v", val, ok, err)
	}
	if h := reg.Snapshot().Counter(MetricBoundedHits); h != 1 {
		t.Fatalf("bounded hits = %d, want 1", h)
	}
	if ver, err := client.Put("/old/x", []byte("new")); err != nil || ver <= 4 {
		t.Fatalf("put through old replicas: ver=%d err=%v", ver, err)
	}
}

// TestStragglerLegSendsTheValuePutWasGiven: a write returns at a
// majority while a straggling leg may not have encoded its frame yet,
// and the caller reuses its buffer as soon as Put returns. Here the
// third leg is held back in the pool before it encodes anything — its
// breaker's half-open transition waits until the caller has overwritten
// the buffer — and the frame it then sends must still carry the value
// Put was given: the command owns a copy of its value bytes.
func TestStragglerLegSendsTheValuePutWasGiven(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	slow := cluster.Addrs()[2]
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Millisecond,
		OnBreakerChange: func(addr, _, to string) {
			if addr == slow && to == "half-open" {
				<-release
			}
		},
	})
	defer pool.Close()

	// A call that cannot succeed opens the slow replica's breaker; a
	// connection is pooled behind it, so the held-back leg has one to
	// write to once it is let go.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := pool.CallContext(expired, slow, cmdlang.New("psfetch").SetString("path", "/own/x")); err == nil {
		t.Fatal("a call past its deadline succeeded")
	}
	if got := pool.BreakerState(slow); got != "open" {
		t.Fatalf("breaker %s, want open", got)
	}
	if _, err := pool.Get(slow); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // past the cool-down

	client := NewClient(pool, cluster.Addrs())
	buf := []byte("the value Put was given")
	want := string(buf)
	if _, err := client.Put("/own/x", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, bytes.Repeat([]byte("X"), len(buf)))
	free()
	client.Close() // the third leg has sent its frame

	// The fetch follows the leg's psput on the same connection, and a
	// connection's commands run in order.
	reply, err := pool.Call(slow, cmdlang.New("psfetch").SetString("path", "/own/x"))
	if err != nil {
		t.Fatalf("psfetch on the slow replica: %v", err)
	}
	if got, _ := reply.Bytes("value"); string(got) != want {
		t.Fatalf("slow replica holds %q, want %q", got, want)
	}
}

// TestFrozenReplicaDoesNotStallWriters: a replica that accepts
// connections and then never reads leaves its socket buffers to fill,
// and a write that finds them full blocks until the call's deadline. A
// storm of 64 KiB writes fills them, and every quorum PUT and GET must
// still complete from the two healthy replicas, each far inside the
// call timeout: no caller writes into the frozen replica's full buffers
// itself.
func TestFrozenReplicaDoesNotStallWriters(t *testing.T) {
	cluster, err := StartCluster(2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.StopAll)
	frozen, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := frozen.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	thaw := sync.OnceFunc(func() {
		frozen.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	defer thaw()

	pool, _ := telemetryPool(t, wire.DefaultCallTimeout)
	client := NewClient(pool, append(cluster.Addrs(), frozen.Addr().String()))
	const writers, puts = 4, 40
	value := bytes.Repeat([]byte("v"), 64<<10)
	var slowest atomic.Int64
	timed := func(op func() error) error {
		start := time.Now()
		err := op()
		if d := int64(time.Since(start)); d > slowest.Load() {
			slowest.Store(d) // racy max, good enough for a bound
		}
		return err
	}
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func() {
			path := fmt.Sprintf("/frozen/%d", w)
			for i := 0; i < puts; i++ {
				var ver uint64
				if err := timed(func() (err error) { ver, err = client.Put(path, value); return err }); err != nil {
					errs <- fmt.Errorf("put %d of %s: %w", i, path, err)
					return
				}
				if err := timed(func() error {
					_, got, ok, err := client.Get(path)
					if err == nil && (!ok || got != ver) {
						err = fmt.Errorf("read version %d ok=%v, want %d", got, ok, ver)
					}
					return err
				}); err != nil {
					errs <- fmt.Errorf("get %d of %s: %w", i, path, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range writers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Duration(slowest.Load()); d > wire.DefaultCallTimeout/10 {
		t.Fatalf("slowest operation took %v with a frozen replica (call timeout %v)", d, wire.DefaultCallTimeout)
	}
	thaw()
	client.Close()
}

// flushGate holds the flushes of a gatedFS, once armed, until open is
// closed: a durable node on it acks no write until the test lets go.
// Each flush takes slow first, as on a disk that really writes.
type flushGate struct {
	armed atomic.Bool
	open  chan struct{}
	slow  time.Duration
}

// gatedFS is cacheFS whose flushes wait at its gate.
type gatedFS struct {
	cacheFS
	gate *flushGate
}

func (g gatedFS) Create(name string) (storage.File, error) {
	f, err := g.cacheFS.Create(name)
	return gatedFile{f, g.gate}, err
}

func (g gatedFS) OpenAppend(name string) (storage.File, error) {
	f, err := g.cacheFS.OpenAppend(name)
	return gatedFile{f, g.gate}, err
}

type gatedFile struct {
	storage.File
	gate *flushGate
}

func (g gatedFile) Sync() error {
	time.Sleep(g.gate.slow)
	if g.gate.armed.Load() {
		<-g.gate.open
	}
	return nil
}

// TestRedeliveryAckWaitsForTheFirstCopysFlush: a write told to a
// replica and then asked of it — a write's spare leg — is a
// re-delivery: applied once and logged once. Its ack counts toward a
// quorum, so it waits until the first copy's record is durable, whether
// the first copy was a told write or an item anti-entropy installed,
// and whether the re-delivery came over the wire, which detaches, or
// from a local dispatch, which cannot.
func TestRedeliveryAckWaitsForTheFirstCopysFlush(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(t *testing.T, node *Node, pool *daemon.Pool, cmd *cmdlang.CmdLine)
	}{
		{"told write", func(t *testing.T, node *Node, pool *daemon.Pool, cmd *cmdlang.CmdLine) {
			if err := pool.Send(node.Addr(), cmd); err != nil {
				t.Fatal(err)
			}
		}},
		{"anti-entropy batch", func(t *testing.T, node *Node, _ *daemon.Pool, _ *cmdlang.CmdLine) {
			done := make(chan struct{})
			t.Cleanup(func() { <-done })
			go func() {
				defer close(done)
				if _, err := node.applyDurableBatch([]Item{{Path: "/redeliver/x", Value: []byte("v"), Version: 5}}); err != nil {
					t.Error(err)
				}
			}()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := &flushGate{open: make(chan struct{})}
			node, err := NewNode(Config{
				Daemon:  daemon.Config{Name: "gated"},
				Dir:     t.TempDir(),
				Storage: storage.Options{FS: gatedFS{cacheFS{storage.OS}, gate}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(node.Stop)
			pool := daemon.NewPool(nil)
			t.Cleanup(pool.Close)

			gate.armed.Store(true)
			release := sync.OnceFunc(func() { close(gate.open) })
			cmd := putCommand("/redeliver/x", []byte("v"), 5)
			tc.first(t, node, pool, cmd)
			t.Cleanup(release) // first, so that a batch waiting on the gate ends
			if !holdsSoon(node, "/redeliver/x", 5) {
				t.Fatal("the first copy was not applied")
			}
			acked := make(chan *cmdlang.CmdLine, 2)
			go func() {
				reply, err := pool.Call(node.Addr(), cmd)
				if err != nil {
					t.Error(err)
				}
				acked <- reply
			}()
			go func() { acked <- node.ExecuteLocal(nil, cmd) }()
			select {
			case reply := <-acked:
				t.Fatalf("re-delivery acked %v before the first copy was durable", reply)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			for range 2 {
				select {
				case reply := <-acked:
					if reply == nil || !reply.Bool("applied", false) || reply.Int("version", 0) != 5 {
						t.Fatalf("re-delivery answered %v, want applied=true version=5", reply)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("re-delivery not acked once the first copy was durable")
				}
			}
			if n := node.Telemetry().Snapshot().Counter(MetricWALAppends); n != 1 {
				t.Fatalf("%d log appends for one write delivered three times, want 1", n)
			}
		})
	}
}

// startedLegEnv is a client over replicas whose connections are pooled
// already, so that every leg of its next fan-out is started in place,
// with the pool's breaker openings counted per address.
type startedLegEnv struct {
	pool   *daemon.Pool
	reg    *telemetry.Registry
	client *Client
	mu     sync.Mutex
	opened map[string]int
}

func newStartedLegEnv(t *testing.T, cfg daemon.PoolConfig, replicas ...string) *startedLegEnv {
	t.Helper()
	e := &startedLegEnv{reg: telemetry.NewRegistry(), opened: map[string]int{}}
	cfg.Seed, cfg.Telemetry = 1, e.reg
	cfg.OnBreakerChange = func(addr, _, to string) {
		if to == "open" {
			e.mu.Lock()
			e.opened[addr]++
			e.mu.Unlock()
		}
	}
	e.pool = daemon.NewPoolConfig(cfg)
	t.Cleanup(e.pool.Close)
	for _, addr := range replicas {
		if _, err := e.pool.Call(addr, cmdlang.New("ping")); err != nil {
			t.Fatal(err)
		}
	}
	e.client = NewClient(e.pool, replicas)
	t.Cleanup(e.client.Close)
	return e
}

// breakerAtFirstFailure is the pool of most started-leg cases: one
// transport failure opens a breaker, for a millisecond.
func breakerAtFirstFailure(callTimeout time.Duration) daemon.PoolConfig {
	return daemon.PoolConfig{CallTimeout: callTimeout, BreakerThreshold: 1, BreakerCooldown: time.Millisecond}
}

func (e *startedLegEnv) opens(addr string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.opened[addr]
}

func (e *startedLegEnv) counter(name string) int64 { return e.reg.Snapshot().Counter(name) }

// TestStartedLegFallbacksAndBreaker: a leg's first attempt is a call
// started in place, and what the pool does beyond one attempt — the
// redial, the breaker, busy backoff — it still does, on the blocking
// path, with the same accounting: a restarted replica is redialled and
// charged once, a shed leg is retried no sooner than retry_after and
// within its call's attempt budget, a leg at the fan-out's deadline is a
// timeout charged to the breaker, and a leg the caller gave up is
// neither charged nor costs the connection.
func TestStartedLegFallbacksAndBreaker(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"restarted replica is redialled", func(t *testing.T) {
			gate := &flushGate{open: make(chan struct{})}
			addrs := make([]string, 3)
			for i := range 2 {
				n, err := NewNode(Config{
					Daemon:  daemon.Config{Name: fmt.Sprintf("held%d", i)},
					Dir:     t.TempDir(),
					Storage: storage.Options{FS: gatedFS{cacheFS{storage.OS}, gate}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Stop)
				addrs[i] = n.Addr()
			}
			restart := func(listen string) *Node {
				n, err := NewNode(Config{Daemon: daemon.Config{Name: "restarted", Listen: listen}})
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Stop)
				return n
			}
			r := restart("")
			addrs[2] = r.Addr()
			e := newStartedLegEnv(t, breakerAtFirstFailure(5*time.Second), addrs...)
			if _, err := e.client.Put("/leg/restart", []byte("v0")); err != nil {
				t.Fatal(err)
			}
			before, err := e.pool.Get(addrs[2])
			if err != nil {
				t.Fatal(err)
			}
			r.Stop()
			r = restart(addrs[2])

			// The two held replicas ack only once the restarted one has
			// applied the write, so its leg is part of the quorum.
			gate.armed.Store(true)
			type put struct {
				ver uint64
				err error
			}
			done := make(chan put, 1)
			go func() {
				ver, err := e.client.Put("/leg/restart", []byte("v1"))
				done <- put{ver, err}
			}()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if it, ok := r.get("/leg/restart"); ok && string(it.Value) == "v1" {
					break
				}
				if time.Now().After(deadline) {
					close(gate.open)
					t.Fatal("the restarted replica never applied the write")
				}
			}
			close(gate.open)
			p := <-done
			if p.err != nil {
				t.Fatal(p.err)
			}
			e.client.Close()
			for _, n := range e.client.replicas {
				if reply, err := e.pool.Call(n, cmdlang.New("psfetch").SetString("path", "/leg/restart")); err != nil || reply.Int("version", 0) != int64(p.ver) {
					t.Fatalf("replica %s: %v %v, want version %d", n, reply, err, p.ver)
				}
			}
			if n := e.opens(addrs[2]); n != 1 {
				t.Fatalf("breaker of the restarted replica opened %d times, want 1", n)
			}
			if n := e.counter(MetricFanoutBlockingLegs); n < 1 {
				t.Fatal("no leg ran on the blocking path")
			}
			if after, err := e.pool.Get(addrs[2]); err != nil || after == before {
				t.Fatalf("the restarted replica was not redialled: %v", err)
			}
		}},
		{"busy leg waits retry_after", func(t *testing.T) {
			cluster, _ := startCluster(t, 1, "")
			const retryAfter = 50 * time.Millisecond
			var mu sync.Mutex
			var arrived []time.Time
			shedding := daemon.New(daemon.Config{Name: "shedding_replica"})
			shedding.Handle(cmdlang.CommandSpec{Name: "psput", AllowExtra: true},
				func(_ *daemon.Ctx, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
					mu.Lock()
					defer mu.Unlock()
					arrived = append(arrived, time.Now())
					if len(arrived) == 1 {
						return cmdlang.Busy(retryAfter), nil
					}
					return cmdlang.OK().SetBool("applied", true).SetInt("version", cmd.Int("version", 0)), nil
				})
			if err := shedding.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(shedding.Stop)
			// A write asks a quorum, from the start of a fresh client's
			// rotation: the healthy replica and the shedding one. The
			// stalled one is only told, and the hedge that the shed leg's
			// wait outlasts asks it in vain.
			stall := startStallReplica(t)
			e := newStartedLegEnv(t, breakerAtFirstFailure(5*time.Second), cluster.Addrs()[0], shedding.Addr(), stall.Addr())
			if _, err := e.client.Put("/leg/busy", []byte("v")); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(arrived) != 2 {
				t.Fatalf("the shedding replica was asked %d times, want 2", len(arrived))
			}
			if gap := arrived[1].Sub(arrived[0]); gap < retryAfter {
				t.Fatalf("retried after %v, sooner than retry_after %v", gap, retryAfter)
			}
			if n := e.counter(daemon.MetricPoolBusyRetries); n != 1 {
				t.Fatalf("%d busy retries, want 1", n)
			}
			if n := e.counter(MetricFanoutBlockingLegs); n != 1 {
				t.Fatalf("%d blocking legs, want 1: the shed one", n)
			}
			if n := e.counter(MetricWriteHedges); n != 1 {
				t.Fatalf("%d write hedges, want 1: the stalled replica asked at the hedge", n)
			}
			if n := e.opens(shedding.Addr()); n != 0 {
				t.Fatalf("a busy reply opened the breaker %d times", n)
			}
		}},
		{"retried leg keeps its attempt budget", func(t *testing.T) {
			// Every replica sheds every read. With MaxRetries 1 a leg makes
			// two attempts in all: the started one and one retry.
			const retryAfter = 50 * time.Millisecond
			runs := make([]atomic.Int32, 3)
			addrs := make([]string, len(runs))
			for i := range runs {
				d := daemon.New(daemon.Config{Name: fmt.Sprintf("shedding%d", i)})
				d.Handle(cmdlang.CommandSpec{Name: "psget", AllowExtra: true},
					func(*daemon.Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
						runs[i].Add(1)
						return cmdlang.Busy(retryAfter), nil
					})
				if err := d.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(d.Stop)
				addrs[i] = d.Addr()
			}
			e := newStartedLegEnv(t, daemon.PoolConfig{CallTimeout: 5 * time.Second, MaxRetries: 1, BreakerThreshold: -1}, addrs...)
			if _, _, _, err := e.client.Get("/leg/shed"); err == nil {
				t.Fatal("a read no replica answered succeeded")
			}
			e.client.Close()
			asked := 0
			for i := range runs {
				if n := runs[i].Load(); n > 2 {
					t.Fatalf("replica %d was asked %d times for one read, want at most 2", i, n)
				} else if n > 0 {
					asked++
				}
			}
			if n := e.counter(daemon.MetricPoolRetries); n != int64(asked) {
				t.Fatalf("%d retries over %d legs asked, want one a leg", n, asked)
			}
		}},
		{"fan-out deadline is a timeout", func(t *testing.T) {
			cluster, _ := startCluster(t, 1, "")
			stall := startStallReplica(t)
			const callTimeout = 200 * time.Millisecond
			e := newStartedLegEnv(t, breakerAtFirstFailure(callTimeout), cluster.Addrs()[0], stall.Addr())
			start := time.Now()
			if _, err := e.client.Put("/leg/deadline", []byte("v")); err == nil {
				t.Fatal("a write without its quorum succeeded")
			}
			if elapsed := time.Since(start); elapsed < callTimeout || elapsed > 10*callTimeout {
				t.Fatalf("the write failed after %v, want the call timeout %v", elapsed, callTimeout)
			}
			if n := e.counter(wire.MetricCallTimeouts); n != 1 {
				t.Fatalf("%d call timeouts, want 1", n)
			}
			if n := e.opens(stall.Addr()); n != 1 {
				t.Fatalf("breaker of the stalled replica opened %d times, want 1", n)
			}
			if n := e.counter(MetricFanoutBlockingLegs); n != 0 {
				t.Fatalf("%d blocking legs, want 0", n)
			}
		}},
		{"caller cancellation is not charged", func(t *testing.T) {
			cluster, _ := startCluster(t, 1, "")
			stall := startStallReplica(t)
			e := newStartedLegEnv(t, breakerAtFirstFailure(5*time.Second), cluster.Addrs()[0], stall.Addr())
			before, err := e.pool.Get(stall.Addr())
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
			if _, err := e.client.PutContext(ctx, "/leg/cancel", []byte("v")); err == nil {
				t.Fatal("a write without its quorum succeeded")
			}
			if n := e.opens(stall.Addr()); n != 0 {
				t.Fatalf("a cancelled leg opened the breaker %d times", n)
			}
			if s := e.pool.BreakerState(stall.Addr()); s != "closed" {
				t.Fatalf("breaker %s after a cancelled leg", s)
			}
			if after, err := e.pool.Get(stall.Addr()); err != nil || after != before || after.Closed() {
				t.Fatalf("the cancelled leg cost the pooled connection: %v", err)
			}
			if n := e.counter(wire.MetricCallTimeouts); n != 0 {
				t.Fatalf("%d call timeouts for a cancelled leg", n)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
