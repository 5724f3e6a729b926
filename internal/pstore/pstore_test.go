package pstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore/storage"
)

func startCluster(t *testing.T, n int, dir string) (*Cluster, *Client) {
	t.Helper()
	c, err := StartCluster(n, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.StopAll)
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	client := NewClient(pool, c.Addrs())
	t.Cleanup(client.Close) // LIFO: drain repairs/stragglers before the pool closes
	return c, client
}

// apply installs it in memory as a write or a pull would, without the
// log.
func (n *Node) apply(it Item) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applyMemLocked(it)
}

// get returns the live item n holds at path.
func (n *Node) get(path string) (Item, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	it, ok := n.items[path]
	if !ok || it.Deleted {
		return Item{}, false
	}
	return it, true
}

func TestPutGetRoundTrip(t *testing.T) {
	_, client := startCluster(t, 3, "")
	v, err := client.Put("/wss/workspaces/john_doe/1", []byte("state-blob-1"))
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatal("acked at the unstamped version 0")
	}
	got, ver, ok, err := client.Get("/wss/workspaces/john_doe/1")
	if err != nil || !ok || ver != v || !bytes.Equal(got, []byte("state-blob-1")) {
		t.Fatalf("got=%q ver=%d (put acked %d) ok=%v err=%v", got, ver, v, ok, err)
	}
	// Overwrite gets a higher version.
	v2, err := client.Put("/wss/workspaces/john_doe/1", []byte("state-blob-2"))
	if err != nil || v2 <= v {
		t.Fatalf("v2=%d after %d err=%v", v2, v, err)
	}
	got, _, _, _ = client.Get("/wss/workspaces/john_doe/1")
	if string(got) != "state-blob-2" {
		t.Fatalf("got=%q", got)
	}
	// Missing path: ok=false, no error.
	_, _, ok, err = client.Get("/nope")
	if ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

// TestPathValidation: a bad path is refused by Put and Delete, and by
// a replica sent a raw psput or psdel, so no replica ever holds one.
func TestPathValidation(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	for _, bad := range []string{"", "rel/path", "/", "/a//b"} {
		if _, err := client.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q): want error", bad)
		}
		if err := client.Delete(bad); err == nil {
			t.Errorf("Delete(%q): want error", bad)
		}
		for _, raw := range []*cmdlang.CmdLine{putCommand(bad, []byte("x"), 1), delCommand(bad, 1)} {
			if _, err := pool.Call(cluster.Addrs()[0], raw); err == nil {
				t.Errorf("raw %s %q: want error", raw.Name(), bad)
			}
		}
	}
	for i, n := range cluster.Nodes {
		if d := n.Digest(); len(d) != 0 {
			t.Errorf("replica %d holds %v", i, d)
		}
	}
}

func TestDeleteTombstone(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	client.Put("/a/b", []byte("x")) //nolint:errcheck
	if err := client.Delete("/a/b"); err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := client.Get("/a/b")
	if ok || err != nil {
		t.Fatalf("deleted item visible: ok=%v err=%v", ok, err)
	}
	// Re-create after delete gets a version above the tombstone's, which
	// a quorum read hides but a majority of the digests shows.
	var tomb uint64
	for _, n := range cluster.Nodes {
		tomb = max(tomb, n.Digest()["/a/b"])
	}
	v, err := client.Put("/a/b", []byte("y"))
	if err != nil || tomb == 0 || v <= tomb {
		t.Fatalf("v=%d after tombstone %d err=%v", v, tomb, err)
	}
	got, _, ok, _ := client.Get("/a/b")
	if !ok || string(got) != "y" {
		t.Fatalf("got=%q ok=%v", got, ok)
	}
}

func TestList(t *testing.T) {
	_, client := startCluster(t, 3, "")
	client.Put("/wss/a", []byte("1")) //nolint:errcheck
	client.Put("/wss/b", []byte("2")) //nolint:errcheck
	client.Put("/other", []byte("3")) //nolint:errcheck
	client.Delete("/wss/b")           //nolint:errcheck
	paths, err := client.List("/wss/")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "/wss/a" {
		t.Fatalf("paths=%v", paths)
	}
}

func TestSurvivesOneCrash(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	client.Put("/k", []byte("v1")) //nolint:errcheck

	// One server fails: reads and writes still work (Fig 17: "if one
	// or two of the servers fail, ACE services may still access the
	// stored information").
	cluster.Nodes[0].Stop()

	got, _, ok, err := client.Get("/k")
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("read after 1 crash: %q %v %v", got, ok, err)
	}
	if _, err := client.Put("/k", []byte("v2")); err != nil {
		t.Fatalf("write after 1 crash: %v", err)
	}
	got, _, _, _ = client.Get("/k")
	if string(got) != "v2" {
		t.Fatalf("got=%q", got)
	}
}

func TestSurvivesTwoCrashesForReads(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	client.Put("/k", []byte("v1")) //nolint:errcheck
	// The put returns at a majority and may have cancelled the survivor
	// as its straggler; anti-entropy carries v1 there.
	cluster.SyncRound()
	cluster.Nodes[0].Stop()
	cluster.Nodes[1].Stop()

	// Quorum reads fail (majority unreachable)...
	if _, _, _, err := client.Get("/k"); err == nil {
		t.Fatal("quorum read succeeded with 2 crashes")
	}
	// ...but the available-read path still serves the data.
	got, _, ok, err := client.GetAny("/k")
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("GetAny after 2 crashes: %q %v %v", got, ok, err)
	}
	// Quorum writes must fail: no split-brain.
	if _, err := client.Put("/k", []byte("v2")); err == nil {
		t.Fatal("quorum write succeeded with 2 crashes")
	}
}

func TestAntiEntropyHealsLaggingReplica(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	// Node 2 is down during a burst of writes.
	cluster.Nodes[2].Stop()
	for i := 0; i < 10; i++ {
		if _, err := client.Put(fmt.Sprintf("/burst/%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// A replacement node joins empty and syncs from its peers.
	fresh, err := NewNode(Config{Daemon: daemon.Config{Name: "pstore3b"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Stop)
	fresh.SetPeers([]string{cluster.Nodes[0].Addr(), cluster.Nodes[1].Addr()})

	pulled := fresh.SyncAll()
	if pulled != 10 {
		t.Fatalf("pulled=%d", pulled)
	}
	if fresh.Len() != 10 {
		t.Fatalf("fresh len=%d", fresh.Len())
	}
	// Second round is a no-op: convergence.
	if again := fresh.SyncAll(); again != 0 {
		t.Fatalf("second sync pulled %d", again)
	}
}

func TestAntiEntropyPropagatesTombstones(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	client.Put("/t", []byte("x")) //nolint:errcheck

	fresh, err := NewNode(Config{Daemon: daemon.Config{Name: "fresh"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Stop)
	fresh.SetPeers(cluster.Addrs())
	fresh.SyncAll()
	if fresh.Len() != 1 {
		t.Fatalf("len=%d", fresh.Len())
	}

	client.Delete("/t") //nolint:errcheck
	fresh.SyncAll()
	if fresh.Len() != 0 {
		t.Fatal("tombstone did not propagate")
	}
}

func TestWALPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	node, err := NewNode(Config{Daemon: daemon.Config{Name: "durable"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	pool := daemon.NewPool(nil)
	defer pool.Close()
	client := NewClient(pool, []string{node.Addr()})
	for i := 0; i < 5; i++ {
		if _, err := client.Put(fmt.Sprintf("/d/%d", i), []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	client.Delete("/d/0") //nolint:errcheck
	node.Stop()

	// The node logs what it was sent: a version and no stamp of its own.
	// The log also takes stamped records, which is how the benchmark's
	// preload writes its keys.
	eng, recs, _, err := storage.Open(filepath.Join(dir, "durable"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 6 {
		t.Fatalf("recovered %d records of five puts and a delete", len(recs))
	}
	for _, r := range recs {
		if r.HLC != 0 {
			t.Fatalf("%s logged with stamp %#x, want none", r.Path, r.HLC)
		}
	}
	stamped := storage.Record{Path: "/d/stamped", Value: []byte("s"), Version: 1, HLC: 0xABCD0001}
	if err := errors.Join(eng.AppendBatch([]storage.Record{stamped}), eng.Close()); err != nil {
		t.Fatal(err)
	}

	// Restart from the same WAL directory: state is recovered,
	// including the tombstone and the stamped record.
	node2, err := NewNode(Config{Daemon: daemon.Config{Name: "durable"}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := node2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node2.Stop)
	if node2.Len() != 5 {
		t.Fatalf("recovered len=%d", node2.Len())
	}
	if it, ok := node2.get(stamped.Path); !ok || it.Version != stamped.Version || string(it.Value) != "s" {
		t.Fatalf("stamped record recovered as %+v ok=%v", it, ok)
	}
	pool2 := daemon.NewPool(nil)
	defer pool2.Close()
	client2 := NewClient(pool2, []string{node2.Addr()})
	got, _, ok, err := client2.Get("/d/3")
	if err != nil || !ok || string(got) != "d" {
		t.Fatalf("got=%q ok=%v err=%v", got, ok, err)
	}
	if _, _, ok, _ := client2.Get("/d/0"); ok {
		t.Fatal("deleted item resurrected by WAL replay")
	}
}

func TestNewerTieBreakIsDeterministic(t *testing.T) {
	a := Item{Path: "/p", Value: []byte("aaa"), Version: 5}
	b := Item{Path: "/p", Value: []byte("zzz"), Version: 5}
	if newer(a, b) == newer(b, a) {
		t.Fatal("tiebreak not antisymmetric")
	}
	del := Item{Path: "/p", Version: 5, Deleted: true}
	if !newer(del, a) {
		t.Fatal("delete should win version ties")
	}
	v6 := Item{Path: "/p", Version: 6}
	if !newer(v6, del) {
		t.Fatal("higher version should win")
	}
}

// TestQuickConvergence: any write/delete sequence applied through the
// client, followed by full sync rounds, leaves all replicas with
// identical digests and the client-visible state matching a simple
// map model.
func TestQuickConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster property test")
	}
	cluster, client := startCluster(t, 3, "")
	f := func(ops []uint8) bool {
		model := map[string]string{}
		for _, op := range ops {
			key := fmt.Sprintf("/q/%d", op%5)
			if op%3 == 0 {
				client.Delete(key) //nolint:errcheck
				delete(model, key)
			} else {
				val := fmt.Sprintf("v%d", op)
				if _, err := client.Put(key, []byte(val)); err != nil {
					return false
				}
				model[key] = val
			}
		}
		// Converge.
		for i := 0; i < 3; i++ {
			cluster.SyncRound()
		}
		// All replicas hold identical digests.
		d0 := cluster.Nodes[0].Digest()
		for _, n := range cluster.Nodes[1:] {
			d := n.Digest()
			if len(d) != len(d0) {
				return false
			}
			for p, v := range d0 {
				if d[p] != v {
					return false
				}
			}
		}
		// Client view matches the model.
		for k, want := range model {
			got, _, ok, err := client.Get(k)
			if err != nil || !ok || string(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRepairHealsStaleReplica(t *testing.T) {
	cluster, client := startCluster(t, 3, "")
	// Write v1 everywhere, then push v2 directly to only two nodes,
	// leaving node 2 stale.
	v1, err := client.Put("/rr", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := v1 + 1
	for _, n := range cluster.Nodes[:2] {
		if !n.apply(Item{Path: "/rr", Value: []byte("v2"), Version: v2}) {
			t.Fatal("direct apply failed")
		}
	}
	// The put may have cancelled node 2 as its straggler before v1
	// reached it; the scenario needs it holding v1.
	cluster.Nodes[2].apply(Item{Path: "/rr", Value: []byte("v1"), Version: v1})
	if it, ok := cluster.Nodes[2].get("/rr"); !ok || it.Version != v1 {
		t.Fatalf("precondition: node2=%+v ok=%v", it, ok)
	}

	// A quorum read returns v2 and repairs node 2 in the background —
	// when node 2 answered it. A read decided by the other two cancels
	// node 2 as its straggler and learns nothing about it, so read
	// until one sees the stale copy.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, ver, ok, err := client.Get("/rr")
		if err != nil || !ok || ver != v2 || string(got) != "v2" {
			t.Fatalf("got=%q ver=%d ok=%v err=%v", got, ver, ok, err)
		}
		if it, ok := cluster.Nodes[2].get("/rr"); ok && it.Version == v2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stale replica never repaired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
