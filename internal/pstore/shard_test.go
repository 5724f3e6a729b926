package pstore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore/placement"
	"ace/internal/telemetry"
)

// startShardGroups starts len(names) replica groups of three in-memory
// nodes each, peers wired within each group, and returns the node sets
// plus the placement.Group descriptors.
func startShardGroups(t *testing.T, names ...string) (map[string][]*Node, []placement.Group) {
	t.Helper()
	groups := make([]placement.Group, 0, len(names))
	nodes := map[string][]*Node{}
	for _, name := range names {
		var ns []*Node
		var addrs []string
		for i := 0; i < 3; i++ {
			n, err := NewNode(Config{
				Daemon: daemon.Config{Name: fmt.Sprintf("%sn%d", name, i+1)},
				Group:  name,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(n.Stop)
			ns = append(ns, n)
			addrs = append(addrs, n.Addr())
		}
		for i, n := range ns {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			n.SetPeers(peers)
		}
		nodes[name] = ns
		groups = append(groups, placement.Group{Name: name, Replicas: addrs})
	}
	return nodes, groups
}

func startShardASD(t *testing.T) *asd.Service {
	t.Helper()
	s := asd.New(asd.Config{ReapInterval: time.Hour})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func shardKey(i int) string { return fmt.Sprintf("/shard/key/%03d", i) }

func TestShardedPutGetAcrossGroups(t *testing.T) {
	nodes, groups := startShardGroups(t, "g1", "g2")
	dir := startShardASD(t)
	pool := daemon.NewPool(nil)
	defer pool.Close()

	co := NewCoordinator(pool, dir.Addr())
	m, err := co.Bootstrap(context.Background(), 7, 32, 64, groups)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	sc := NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer sc.Close()
	const n = 48
	for i := 0; i < n; i++ {
		if _, err := sc.Put(shardKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		val, ver, ok, err := sc.Get(shardKey(i))
		if err != nil || !ok || ver == 0 || string(val) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d: val=%q ver=%d ok=%v err=%v", i, val, ver, ok, err)
		}
	}

	// Each group's replicas must hold only partitions the map assigns
	// to that group — routing actually sharded, not broadcast.
	perGroup := map[string]int{}
	for gi, g := range m.Groups {
		for _, node := range nodes[g.Name] {
			for p := range node.Digest() {
				if got := m.Assignment[placement.PartitionOf(p, m.Partitions)]; got != gi {
					t.Fatalf("group %s holds %s owned by group %d", g.Name, p, got)
				}
			}
		}
		perGroup[g.Name] = len(nodes[g.Name][0].Digest())
	}
	for name, count := range perGroup {
		if count == 0 {
			t.Fatalf("group %s holds no keys — not sharded (%v)", name, perGroup)
		}
	}

	// List unions across groups.
	paths, err := sc.List("/shard/")
	if err != nil || len(paths) != n {
		t.Fatalf("list: %d paths, err=%v", len(paths), err)
	}

	// Delete routes like writes do.
	if err := sc.Delete(shardKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := sc.Get(shardKey(0)); ok {
		t.Fatal("deleted key still readable")
	}

	// An unsharded (epoch-0) client pointed at the right group still
	// works: placement does not break legacy single-group callers.
	owner := m.Assignment[placement.PartitionOf(shardKey(1), m.Partitions)]
	g0 := NewClient(pool, m.Groups[owner].Replicas)
	defer g0.Close()
	if _, _, ok, err := g0.Get(shardKey(1)); !ok || err != nil {
		t.Fatalf("legacy client read: ok=%v err=%v", ok, err)
	}
	// The same kind of client pointed at a group that does not own the
	// path is refused, reads and writes alike: once a map is installed,
	// an unstamped request is not admitted wherever it lands.
	other := NewClient(pool, m.Groups[1-owner].Replicas)
	defer other.Close()
	if _, _, _, err := other.Get(shardKey(1)); !IsWrongGroup(err) {
		t.Fatalf("legacy read at a non-owning group: err=%v, want wrong_group", err)
	}
	if _, err := other.Put(shardKey(1), []byte("misrouted")); !IsWrongGroup(err) {
		t.Fatalf("legacy write at a non-owning group: err=%v, want wrong_group", err)
	}
}

func TestGroupClientStaleEpochRejected(t *testing.T) {
	_, groups := startShardGroups(t, "g1")
	pool := daemon.NewPool(nil)
	defer pool.Close()

	m := placement.NewMap(7, 32, 64, groups)
	m.Epoch = 3
	for i := range m.Stamp {
		m.Stamp[i] = 3
	}
	for _, addr := range groups[0].Replicas {
		if _, err := pool.Call(addr, cmdlang.New("psmap").SetString("map", m.EncodeString())); err != nil {
			t.Fatalf("psmap: %v", err)
		}
	}

	stale := NewGroupClient(pool, groups[0].Replicas, 2)
	defer stale.Close()
	if _, err := stale.Put("/stale/x", []byte("v")); !IsWrongGroup(err) {
		t.Fatalf("stale put err=%v, want WrongGroupError", err)
	}
	if _, _, _, err := stale.Get("/stale/x"); !IsWrongGroup(err) {
		t.Fatalf("stale get err=%v, want WrongGroupError", err)
	}

	fresh := NewGroupClient(pool, groups[0].Replicas, 3)
	defer fresh.Close()
	if _, err := fresh.Put("/stale/x", []byte("v")); err != nil {
		t.Fatalf("fresh put: %v", err)
	}
}

func TestRebalanceMovesDataAndStaleClientRecovers(t *testing.T) {
	nodes, groups := startShardGroups(t, "g1", "g2", "g3")
	dir := startShardASD(t)
	// NewPool(nil) would leave telemetry nil and make every counter a
	// silent no-op; this test asserts on the redirect counter.
	pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry()})
	defer pool.Close()

	ctx := context.Background()
	co := NewCoordinator(pool, dir.Addr())
	if _, err := co.Bootstrap(ctx, 7, 32, 64, groups[:2]); err != nil {
		t.Fatal(err)
	}

	sc := NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer sc.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := sc.Put(shardKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// A second router over the same two-group map, for the quorum reads.
	staleQuorum := NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer staleQuorum.Close()
	if _, _, ok, err := staleQuorum.Get(shardKey(0)); err != nil || !ok {
		t.Fatalf("warm second router: ok=%v err=%v", ok, err)
	}

	// Grow to three groups. The routers' caches are NOT subscribed to
	// placeset: they keep routing with the stale two-group map until
	// wrong_group redirects teach them otherwise.
	final, err := co.Rebalance(ctx, groups)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if len(final.Groups) != 3 || len(final.Moves) != 0 {
		t.Fatalf("final map: %d groups, %d moves", len(final.Groups), len(final.Moves))
	}
	counts := final.Counts()
	if counts[2] == 0 {
		t.Fatalf("rebalance assigned g3 nothing: %v", counts)
	}

	// g3 actually holds the moved partitions' data.
	g3dig := nodes["g3"][0].Digest()
	moved := 0
	for p := range g3dig {
		if final.Assignment[placement.PartitionOf(p, final.Partitions)] != 2 {
			t.Fatalf("g3 holds %s it does not own", p)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("no data arrived on g3")
	}

	// Every key still reads back through a stale router, by either read
	// a router offers — redirects are absorbed by re-routing, not
	// surfaced. sc wrote the keys, so its bounded reads hold leases: an
	// unmoved key is a single-replica hit in its owner's group, a moved
	// one is refused wrong_group by its old holder and re-routed.
	redirects := pool.Telemetry().Counter(placement.MetricRedirects)
	for _, read := range []struct {
		name   string
		router *Sharded
		get    func(s *Sharded, path string) ([]byte, uint64, bool, error)
	}{
		{"quorum", staleQuorum, (*Sharded).Get},
		{"bounded", sc, func(s *Sharded, path string) ([]byte, uint64, bool, error) {
			return s.GetBoundedContext(ctx, path, time.Minute)
		}},
	} {
		before := redirects.Value()
		for i := 0; i < n; i++ {
			val, _, ok, err := read.get(read.router, shardKey(i))
			if err != nil || !ok || string(val) != fmt.Sprintf("v%d", i) {
				t.Fatalf("post-rebalance %s get %d: %q ok=%v err=%v", read.name, i, val, ok, err)
			}
		}
		if redirects.Value() == before {
			t.Fatalf("stale %s reads were never redirected — rebalance moved nothing they routed to", read.name)
		}
	}
	if h := pool.Telemetry().Counter(MetricBoundedHits).Value(); h == 0 {
		t.Fatal("no bounded read of an unmoved key took the owner's single-replica path")
	}
	// Writes too.
	for i := 0; i < n; i++ {
		if _, err := sc.Put(shardKey(i), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatalf("post-rebalance put %d: %v", i, err)
		}
	}

	// A second rebalance to the same target is a no-op.
	again, err := co.Rebalance(ctx, groups)
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != final.Epoch {
		t.Fatalf("idempotent rebalance bumped epoch %d→%d", final.Epoch, again.Epoch)
	}
}
