package chaos_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/pstore/placement"
	"ace/internal/pstore/storage"
)

// groupFlipSchedule drives frames through one named proxy of a fabric
// whose group carries a FlipProb fault and returns the corrupted frame
// indexes.
func groupFlipSchedule(t *testing.T, target string, seed int64, frames int) []int {
	t.Helper()
	fab := chaos.NewFabric(seed)
	defer fab.Close()
	if _, err := fab.Proxy("a", target); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Proxy("b", target); err != nil {
		t.Fatal(err)
	}
	fab.DefineGroup("g", "a", "b")
	fab.SetGroupFaults("g", chaos.Faults{FlipProb: 0.3})

	conn, err := net.DialTimeout("tcp", fab.Addr("b"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck

	var corrupted []int
	for i := 0; i < frames; i++ {
		want := []byte(fmt.Sprintf("frame-%04d-payload-abcdefghijklmnop", i))
		writeFrame(t, conn, want)
		if string(readFrame(t, conn)) != string(want) {
			corrupted = append(corrupted, i)
		}
	}
	return corrupted
}

// TestFabricGroupFaultsDeterministic: group-scoped faults inherit the
// per-proxy determinism — the same fabric seed yields the same
// corruption schedule through a grouped proxy, and a different seed a
// different one. Group membership and creation order fix which
// per-proxy seed each member derives.
func TestFabricGroupFaultsDeterministic(t *testing.T) {
	ln := frameEchoServer(t)
	defer ln.Close()
	const frames = 300

	a := groupFlipSchedule(t, ln.Addr().String(), 42, frames)
	b := groupFlipSchedule(t, ln.Addr().String(), 42, frames)
	if len(a) == 0 {
		t.Fatal("no corruption injected through grouped proxy")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same fabric seed, different group schedules:\n%v\n%v", a, b)
	}
	c := groupFlipSchedule(t, ln.Addr().String(), 43, frames)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different fabric seeds produced identical group schedules")
	}
}

// TestFabricGroupPartitionAndHeal: PartitionGroup severs every member
// at once, HealGroup restores them, and other groups are untouched.
func TestFabricGroupPartitionAndHeal(t *testing.T) {
	d := daemon.New(daemon.Config{Name: "grouped"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	fab := chaos.NewFabric(5)
	defer fab.Close()
	for _, n := range []string{"r1", "r2", "r3"} {
		if _, err := fab.Proxy(n, d.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	fab.DefineGroup("left", "r1", "r2")
	fab.DefineGroup("right", "r3")

	// No breaker: the test pings dead proxies and expects an instant
	// recovery after heal, not a cooldown.
	pool := daemon.NewPoolConfig(daemon.PoolConfig{MaxRetries: -1, BreakerThreshold: -1})
	defer pool.Close()
	ping := func(name string) error {
		_, err := pool.Call(fab.Addr(name), cmdlang.New(daemon.CmdPing))
		return err
	}

	fab.PartitionGroup("left")
	if err := ping("r1"); err == nil {
		t.Fatal("r1 reachable through partitioned group")
	}
	if err := ping("r2"); err == nil {
		t.Fatal("r2 reachable through partitioned group")
	}
	if err := ping("r3"); err != nil {
		t.Fatalf("partitioning group left broke group right: %v", err)
	}
	fab.HealGroup("left")
	if err := ping("r1"); err != nil {
		t.Fatalf("r1 unreachable after HealGroup: %v", err)
	}
}

// TestChaosGroupKillMidRebalance is the sharding durability drill:
// kill an entire destination replica group (process crash + disk
// losing unsynced data + network partition) in the middle of a live
// rebalance that is moving partitions onto it, while a writer keeps
// the cluster under load.
//
//   - No write the storm acked may be lost: pre-kill writes to moving
//     partitions are dual-applied (source AND destination quorums), so
//     the surviving source still holds them.
//   - Reads of partitions owned by the surviving groups keep serving
//     through the outage.
//   - After the dead group restarts from its (crashed) disks, running
//     Rebalance again resumes from the published map and converges to
//     the target — the coordinator keeps no state outside the map.
//   - Replicas inside each group converge to identical digests.
func TestChaosGroupKillMidRebalance(t *testing.T) {
	fab := chaos.NewFabric(11)
	defer fab.Close()

	dir := asd.New(asd.Config{ReapInterval: time.Hour})
	if err := dir.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dir.Stop)

	type member struct {
		name string
		disk *chaos.DiskFS
		node *pstore.Node
	}
	startNode := func(m *member, group string) {
		t.Helper()
		n, err := pstore.NewNode(pstore.Config{
			Daemon:  daemon.Config{Name: m.name},
			Group:   group,
			Dir:     "/data",
			Storage: storage.Options{FS: m.disk, SegmentBytes: 1024, SnapshotBytes: 2048}, // every node compacts in the drill
		})
		if err != nil {
			t.Fatalf("NewNode %s: %v", m.name, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("Start %s: %v", m.name, err)
		}
		m.node = n
	}

	groupNames := []string{"g1", "g2", "g3"}
	members := map[string][]*member{}
	var pgroups []placement.Group
	for _, g := range groupNames {
		var proxyAddrs []string
		var names []string
		for i := 0; i < 3; i++ {
			m := &member{name: fmt.Sprintf("%sn%d", g, i+1), disk: chaos.NewDiskFS()}
			startNode(m, g)
			p, err := fab.Proxy(m.name, m.node.Addr())
			if err != nil {
				t.Fatal(err)
			}
			members[g] = append(members[g], m)
			names = append(names, m.name)
			proxyAddrs = append(proxyAddrs, p.Addr())
		}
		fab.DefineGroup(g, names...)
		for i, m := range members[g] {
			var peers []string
			for j, a := range proxyAddrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			m.node.SetPeers(peers)
		}
		pgroups = append(pgroups, placement.Group{Name: g, Replicas: proxyAddrs})
	}
	t.Cleanup(func() {
		for _, ms := range members {
			for _, m := range ms {
				m.node.Stop()
			}
		}
	})

	// Breakers and retries off: the kill window is short, and the test
	// wants crisp fail-or-serve behavior, not breaker hysteresis.
	pool := daemon.NewPoolConfig(daemon.PoolConfig{MaxRetries: -1, BreakerThreshold: -1})
	defer pool.Close()

	ctx := context.Background()
	co := pstore.NewCoordinator(pool, dir.Addr())
	if _, err := co.Bootstrap(ctx, 7, 32, 64, pgroups[:2]); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	const keys = 48
	key := func(i int) string { return fmt.Sprintf("/ace/chaos/%03d", i) }
	seedClient := pstore.NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer seedClient.Close()
	var acked sync.Map // path -> highest acked version
	for i := 0; i < keys; i++ {
		ver, err := seedClient.Put(key(i), []byte(fmt.Sprintf("seed-%d", i)))
		if err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
		acked.Store(key(i), ver)
	}

	// Writer storm: keeps overwriting the key space for the whole run.
	// Failed puts (dead destination quorum during the outage) are
	// expected and simply not recorded — only acked writes must
	// survive.
	stopWrite := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		w := pstore.NewSharded(pool, placement.NewCache(pool, dir.Addr()))
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stopWrite:
				return
			default:
			}
			path := key(i % keys)
			if ver, err := w.Put(path, []byte(fmt.Sprintf("storm-%d", i))); err == nil {
				acked.Store(path, ver)
			}
		}
	}()
	stopWriter := func() {
		select {
		case <-stopWrite:
		default:
			close(stopWrite)
		}
		writers.Wait()
	}
	defer stopWriter()

	// Slow g3 a little so the rebalance has a real mid-flight window
	// to kill it in.
	fab.SetGroupFaults("g3", chaos.Faults{Latency: 2 * time.Millisecond})

	rebErr := make(chan error, 1)
	go func() {
		_, err := pstore.NewCoordinator(pool, dir.Addr()).Rebalance(ctx, pgroups)
		rebErr <- err
	}()

	// Wait for the window: at least one partition already cut over to
	// g3 (epoch ≥ 3) and more moves still pending.
	var killMap *placement.Map
	deadline := time.Now().Add(20 * time.Second)
	for killMap == nil {
		if time.Now().After(deadline) {
			t.Fatal("rebalance never opened a kill window")
		}
		m, err := co.Current(ctx)
		if err == nil && m != nil {
			if len(m.Moves) > 0 && m.Epoch >= 3 {
				killMap = m
				break
			}
			if len(m.Moves) == 0 && len(m.Groups) == 3 {
				t.Fatal("rebalance finished before the kill window")
			}
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the whole destination group: crash every process, lose all
	// unsynced disk state, sever the network.
	for _, m := range members["g3"] {
		m.node.Crash()
		m.disk.Crash()
	}
	fab.PartitionGroup("g3")

	// The in-flight rebalance cannot finish against a dead destination
	// group — it must fail, not silently cut over unverified data.
	select {
	case err := <-rebErr:
		if err == nil {
			t.Fatal("rebalance reported success with its destination group dead")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rebalance hung against a dead destination group")
	}

	// Reads of partitions the surviving groups own keep serving.
	g3idx := killMap.GroupIndex("g3")
	reader := pstore.NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer reader.Close()
	served := 0
	for i := 0; i < keys; i++ {
		p := placement.PartitionOf(key(i), killMap.Partitions)
		if killMap.Assignment[p] == g3idx {
			continue
		}
		if _, _, ok, err := reader.Get(key(i)); err != nil || !ok {
			t.Fatalf("read of surviving-group key %d failed during outage: ok=%v err=%v", i, ok, err)
		}
		served++
	}
	if served == 0 {
		t.Fatal("no keys owned by surviving groups — test cannot observe availability")
	}

	// Restart g3 from its crashed disks behind the same proxy
	// addresses, heal the partition, and resume: the coordinator finds
	// the transition map still published and finishes the job.
	for _, m := range members["g3"] {
		startNode(m, "g3")
		fab.Get(m.name).SetTarget(m.node.Addr())
	}
	for i, m := range members["g3"] {
		var peers []string
		for j, a := range pgroups[2].Replicas {
			if j != i {
				peers = append(peers, a)
			}
		}
		m.node.SetPeers(peers)
	}
	fab.HealGroup("g3")

	final, err := pstore.NewCoordinator(pool, dir.Addr()).Rebalance(ctx, pgroups)
	if err != nil {
		t.Fatalf("resumed rebalance: %v", err)
	}
	if len(final.Groups) != 3 || len(final.Moves) != 0 {
		t.Fatalf("resumed rebalance did not converge: %d groups, %d moves", len(final.Groups), len(final.Moves))
	}
	if final.Counts()[2] == 0 {
		t.Fatal("converged map assigns g3 nothing")
	}

	stopWriter()

	// Zero acked-write loss: every write the storm acked reads back at
	// its acked version or newer, through the final placement.
	verify := pstore.NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer verify.Close()
	checked := 0
	acked.Range(func(k, v any) bool {
		checked++
		path, ver := k.(string), v.(uint64)
		_, got, ok, gerr := verify.Get(path)
		if gerr != nil || !ok {
			t.Fatalf("acked write %s unreadable after recovery: ok=%v err=%v", path, ok, gerr)
		}
		if got < ver {
			t.Fatalf("acked write lost: %s acked at %d, reads back at %d", path, ver, got)
		}
		return true
	})
	if checked != keys {
		t.Fatalf("checked %d paths, want %d", checked, keys)
	}

	// Anti-entropy converges every group's replicas to identical
	// digests — including the restarted g3.
	for round := 0; round < 3; round++ {
		for _, g := range groupNames {
			for _, m := range members[g] {
				m.node.SyncAll()
			}
		}
	}
	for _, g := range groupNames {
		base := members[g][0].node.Digest()
		for _, m := range members[g][1:] {
			if d := m.node.Digest(); !reflect.DeepEqual(base, d) {
				t.Fatalf("group %s replicas diverged after sync: %s has %d entries, %s has %d",
					g, members[g][0].name, len(base), m.name, len(d))
			}
		}
	}
}
