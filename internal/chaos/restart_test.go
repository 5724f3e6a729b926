package chaos_test

import (
	"fmt"
	"sync"
	"testing"

	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/pstore/storage"
)

// TestKillAndRestartDurableReplica is the end-to-end durability drill:
// crash-stop one replica of a three-node persistent store in the
// middle of a concurrent write storm, then restart it from its disk.
//
//   - While the replica is down, the cluster must keep accepting
//     quorum writes — one crash costs a replica, not availability.
//   - The restarted node must recover its pre-crash durable state from
//     snapshot + WAL (its disk is a chaos.DiskFS, so everything that
//     was never fsynced is really gone, like a process kill).
//   - Anti-entropy must then converge it back to the cluster: every
//     write the storm acked is present on the restarted node at the
//     acked version or newer.
//
// The crashed node sits behind a chaos.Proxy so its client-facing
// address survives the restart.
func TestKillAndRestartDurableReplica(t *testing.T) {
	newNode := func(name string, fs *chaos.DiskFS) *pstore.Node {
		t.Helper()
		n, err := pstore.NewNode(pstore.Config{
			Daemon: daemon.Config{Name: name},
			Dir:    "/data",
			Storage: storage.Options{
				FS: fs,
				// Small segments so the storm exercises rotation and
				// the async snapshot/truncate cycle, not just appends.
				SegmentBytes:  1024,
				SnapshotBytes: 2048,
			},
		})
		if err != nil {
			t.Fatalf("NewNode %s: %v", name, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("Start %s: %v", name, err)
		}
		return n
	}

	disk0 := chaos.NewDiskFS()
	n0 := newNode("pstore-r0", disk0)
	n1 := newNode("pstore-r1", chaos.NewDiskFS())
	defer n1.Stop()
	n2 := newNode("pstore-r2", chaos.NewDiskFS())
	defer n2.Stop()

	proxy, err := chaos.NewProxy(n0.Addr(), 1)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()
	// Peers reach node 0 through the proxy too, so anti-entropy keeps
	// working across the restart without re-wiring.
	n0.SetPeers([]string{n1.Addr(), n2.Addr()})
	n1.SetPeers([]string{proxy.Addr(), n2.Addr()})
	n2.SetPeers([]string{proxy.Addr(), n1.Addr()})

	pool := daemon.NewPool(nil)
	defer pool.Close()
	client := pstore.NewClient(pool, []string{proxy.Addr(), n1.Addr(), n2.Addr()})
	defer client.Close()

	const writers, perWriter, crashAfter = 4, 30, 8
	var acked sync.Map // path -> acked version
	var stormErrs sync.Map
	var preCrash, storm sync.WaitGroup
	for w := 0; w < writers; w++ {
		preCrash.Add(1)
		storm.Add(1)
		go func(w int) {
			defer storm.Done()
			signalled := false
			for i := 0; i < perWriter; i++ {
				path := fmt.Sprintf("/storm/w%d/%03d", w, i)
				ver, perr := client.Put(path, []byte(fmt.Sprintf("payload-%d-%d", w, i)))
				if perr != nil {
					stormErrs.Store(path, perr)
				} else {
					acked.Store(path, ver)
				}
				if i == crashAfter-1 && !signalled {
					signalled = true
					preCrash.Done()
				}
			}
		}(w)
	}

	// Crash node 0 mid-storm: engine abandoned without a clean close,
	// then the disk loses everything that was never fsynced.
	preCrash.Wait()
	n0.Crash()
	disk0.Crash()
	storm.Wait()

	// Availability: the storm never saw a failed write — before,
	// during, or after the crash the healthy majority kept acking.
	stormErrs.Range(func(k, v any) bool {
		t.Errorf("storm put %s failed: %v", k, v)
		return true
	})
	if t.Failed() {
		t.FailNow()
	}

	// Restart node 0 from its surviving disk state.
	n0b := newNode("pstore-r0", disk0)
	defer n0b.Stop()
	n0b.SetPeers([]string{n1.Addr(), n2.Addr()})
	proxy.SetTarget(n0b.Addr())

	info := n0b.Recovery()
	if info.CorruptRecords != 0 || len(info.Quarantined) != 0 {
		t.Fatalf("recovery found corruption after a plain crash: %+v", info)
	}
	if info.SnapshotRecords+info.Replayed == 0 {
		t.Fatalf("restarted node recovered nothing from disk: %+v", info)
	}

	// Converge: the restarted node pulls what it missed while down.
	// Anti-entropy is one-directional pull, so drive it from n0b; a
	// couple of rounds covers writes that landed mid-restart.
	for i := 0; i < 3; i++ {
		n0b.SyncAll()
	}

	// Every acked write is on the restarted node at >= its acked
	// version (a newer overwrite from the storm is fine — versions
	// only move forward).
	total := 0
	acked.Range(func(k, v any) bool {
		total++
		path, ackedVer := k.(string), v.(uint64)
		reply, gerr := pool.Call(n0b.Addr(), cmdlang.New("psget").SetString("path", path))
		if gerr != nil {
			t.Fatalf("restarted node psget %s: %v", path, gerr)
		}
		if got := reply.Int("version", 0); uint64(got) < ackedVer {
			t.Fatalf("restarted node has %s at version %d, acked %d", path, got, ackedVer)
		}
		return true
	})
	if total != writers*perWriter {
		t.Fatalf("storm acked %d writes, want %d", total, writers*perWriter)
	}

	// And the cluster as a whole still serves everything.
	if val, _, ok, err := client.Get("/storm/w0/000"); err != nil || !ok || len(val) == 0 {
		t.Fatalf("cluster read after restart = %q ok=%v err=%v", val, ok, err)
	}
}
