package pstore

import (
	"errors"
	"testing"
	"time"

	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore/storage"
)

func startDurableNode(t *testing.T, name string, fs *chaos.DiskFS) *Node {
	t.Helper()
	n, err := NewNode(Config{
		Daemon:  daemon.Config{Name: name},
		Dir:     "/data",
		Storage: storage.Options{FS: fs},
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := n.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return n
}

func putCmd(path, value string, version int64) *cmdlang.CmdLine {
	return cmdlang.New("psput").
		SetString("path", path).
		SetBytes("value", []byte(value)).
		SetInt("version", version)
}

// A node whose disk refuses durability must stop acknowledging writes
// — answering a retryable busy, never a fake OK — while still serving
// reads from memory. This is the write path's end of the durability
// contract: an ack means fsynced, so a node that cannot fsync cannot
// count toward write quorums.
func TestDegradedDiskRefusesAcksServesReads(t *testing.T) {
	fs := chaos.NewDiskFS()
	n := startDurableNode(t, "pstore-dd", fs)
	defer n.Stop()
	// No busy retries: the push-back itself is under test.
	pool := daemon.NewPoolConfig(daemon.PoolConfig{MaxRetries: -1})
	defer pool.Close()

	if _, err := pool.Call(n.Addr(), putCmd("/dd/a", "v1", 1)); err != nil {
		t.Fatalf("healthy put: %v", err)
	}

	fs.FailSync(errors.New("simulated EIO"))
	_, err := pool.Call(n.Addr(), putCmd("/dd/b", "v1", 1))
	var re *cmdlang.RemoteError
	if !errors.As(err, &re) || re.Code != cmdlang.CodeBusy {
		t.Fatalf("put on dead disk = %v, want a busy reply", err)
	}
	if !n.Degraded() {
		t.Fatal("node not degraded after a failed append")
	}
	if got := n.Telemetry().Counter(MetricWALAppendErrors).Value(); got == 0 {
		t.Fatal("pstore.wal.append_errors did not count the failed append")
	}

	// Healing the disk does not un-latch the node: the log sealed
	// itself, and only recovery (restart) re-earns the right to ack.
	fs.FailSync(nil)
	if _, err := pool.Call(n.Addr(), putCmd("/dd/c", "v1", 1)); err == nil {
		t.Fatal("degraded node acked a write after the disk healed")
	}

	// Reads still serve: degradation is a write-availability loss only.
	reply, err := pool.Call(n.Addr(), cmdlang.New("psget").SetString("path", "/dd/a"))
	if err != nil {
		t.Fatalf("read on degraded node: %v", err)
	}
	if val, err := replyValue(reply, n.Addr()); err != nil || string(val) != "v1" {
		t.Fatalf("read on degraded node = %q, want v1", val)
	}
}

// One dead disk must cost the cluster one replica, not its write
// availability: the degraded node answers busy, the other two form
// the majority, and client writes keep succeeding.
func TestQuorumSurvivesDeadDiskReplica(t *testing.T) {
	disks := []*chaos.DiskFS{chaos.NewDiskFS(), chaos.NewDiskFS(), chaos.NewDiskFS()}
	var nodes []*Node
	for i, fs := range disks {
		n := startDurableNode(t, "pstore-q"+string(rune('0'+i)), fs)
		defer n.Stop()
		nodes = append(nodes, n)
	}
	pool := daemon.NewPool(nil)
	defer pool.Close()
	addrs := []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}
	client := NewClient(pool, addrs)
	defer client.Close()

	if _, err := client.Put("/q/before", []byte("b")); err != nil {
		t.Fatalf("healthy quorum put: %v", err)
	}

	disks[0].FailSync(errors.New("simulated EIO"))
	// Every put succeeds on the two healthy replicas. The dead-disk node
	// latches once a write reaches it, which a round that cancels its
	// third leg before sending it can postpone to the next put.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := client.Put("/q/after", []byte("a")); err != nil {
			t.Fatalf("quorum put with one dead disk: %v", err)
		}
		if nodes[0].Degraded() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead-disk node did not latch degraded")
		}
		time.Sleep(time.Millisecond)
	}
	if val, _, ok, err := client.Get("/q/after"); err != nil || !ok || string(val) != "a" {
		t.Fatalf("quorum read back = %q ok=%v err=%v", val, ok, err)
	}
	// The durable copies live on the two healthy replicas.
	for _, n := range nodes[1:] {
		if it, ok := n.get("/q/after"); !ok || string(it.Value) != "a" {
			t.Fatalf("healthy replica %s missing the write", n.Addr())
		}
	}
}
