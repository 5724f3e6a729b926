package pstore

// Tests of the one-round write: the client's clock stamp is the
// version, a replica's answer counts only if it applied the item, and
// a refused round is retried above what the replicas hold.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore/placement"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// TestRacingPutsGetDistinctVersions: writers racing on one key never
// share a version — when any ok reply counted, both halves of a race
// were acknowledged at the same probed cur+1 and one value vanished.
// Every writer has a client, and so a clock, of its own; on one wall
// clock they draw equal stamps often, which is the case under test. A
// writer may run out of retries against seven rivals, rarely, and must
// then say so; every round the highest stamp wins.
func TestRacingPutsGetDistinctVersions(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	const writers, rounds = 8, 1000
	clients := make([]*Client, writers)
	for i := range clients {
		clients[i] = NewClient(pool, cluster.Addrs())
		t.Cleanup(clients[i].Close)
	}
	type ack struct {
		version uint64
		value   string
	}
	acked := map[uint64]string{}
	var top ack
	refused := 0
	for round := 0; round < rounds; round++ {
		n := 2 + round%(writers-1) // 2..8 of them race this round
		results := make([]ack, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				value := fmt.Sprintf("r%d-w%d", round, w)
				v, err := clients[w].Put("/race/key", []byte(value))
				results[w], errs[w] = ack{v, value}, err
			}(w)
		}
		wg.Wait()
		won := 0
		for w, r := range results {
			var conflict *versionConflict
			if errors.As(errs[w], &conflict) {
				refused++
				continue
			}
			if errs[w] != nil {
				t.Fatalf("round %d writer %d: %v", round, w, errs[w])
			}
			if other, dup := acked[r.version]; dup {
				t.Fatalf("round %d: version %d acknowledged to both %q and %q", round, r.version, other, r.value)
			}
			acked[r.version] = r.value
			won++
			if r.version > top.version {
				top = r
			}
		}
		if won == 0 {
			t.Fatalf("round %d: none of %d racing writes was acknowledged", round, n)
		}
	}
	if refused > len(acked)/100 {
		t.Fatalf("%d writes ran out of retries against %d acknowledged", refused, len(acked))
	}
	got, ver, ok, err := clients[0].Get("/race/key")
	if err != nil || !ok || ver != top.version || string(got) != top.value {
		t.Fatalf("final read %q at %d (ok=%v err=%v), want the highest acknowledged write %q at %d",
			got, ver, ok, err, top.value, top.version)
	}
}

// startGatedReplicas puts a relay in front of every node of cluster
// that answers no psput of a round before all of them hold theirs, and
// returns the relays' addresses. A round decided by its first two
// answers cancels the third leg, written or not, so the frames a write
// sends can be counted exactly only where no answer overtakes a frame.
func startGatedReplicas(t *testing.T, cluster *Cluster) []string {
	t.Helper()
	forward := daemon.NewPool(nil)
	t.Cleanup(forward.Close)
	var (
		mu      sync.Mutex
		arrived int
		open    = make(chan struct{})
	)
	release := make(chan struct{})
	addrs := make([]string, len(cluster.Nodes))
	for i, n := range cluster.Nodes {
		d := daemon.New(daemon.Config{Name: fmt.Sprintf("gate%d", i)})
		d.Handle(cmdlang.CommandSpec{Name: "psput", AllowExtra: true},
			func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				mu.Lock()
				round := open
				if arrived++; arrived == len(addrs) {
					arrived, open = 0, make(chan struct{})
					close(round)
				}
				mu.Unlock()
				select {
				case <-round:
				case <-release:
				}
				return forward.Call(n.Addr(), c.Clone())
			})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		addrs[i] = d.Addr()
	}
	t.Cleanup(func() { close(release) }) // LIFO: unblocks handlers before the relays stop
	return addrs
}

// TestPutConflictTakesOneMoreRound: a writer whose wall clock runs 10 s
// behind the path's last writer is refused once, learns what the
// replicas hold, and succeeds above it in exactly one more round.
func TestPutConflictTakesOneMoreRound(t *testing.T) {
	cluster, ahead := startCluster(t, 3, "")
	held, err := ahead.Put("/conflict/x", []byte("from the fast clock"))
	if err != nil {
		t.Fatal(err)
	}
	cluster.SyncRound() // all three hold it, whichever was the put's straggler

	pool, reg := telemetryPool(t, time.Second)
	behind := NewClient(pool, startGatedReplicas(t, cluster))
	defer behind.Close()
	behind.clock = hlc.New(func() time.Time { return time.Now().Add(-10 * time.Second) }, 0, nil)

	before := reg.Snapshot().Counter(wire.MetricFramesSent)
	v, err := behind.Put("/conflict/x", []byte("from the slow clock"))
	if err != nil {
		t.Fatal(err)
	}
	behind.Close() // stragglers of both rounds have sent what they will
	if v <= held {
		t.Fatalf("acknowledged at %d, not above the holders' %d", v, held)
	}
	snap := reg.Snapshot()
	if n := snap.Counter(MetricWriteConflicts); n != 1 {
		t.Fatalf("%d conflict rounds, want 1", n)
	}
	if frames := snap.Counter(wire.MetricFramesSent) - before; frames != 6 {
		t.Fatalf("%d frames sent, want two write rounds of three", frames)
	}
	got, ver, ok, err := ahead.Get("/conflict/x")
	if err != nil || !ok || ver != v || string(got) != "from the slow clock" {
		t.Fatalf("read %q at %d (ok=%v err=%v), want the slow clock's write at %d", got, ver, ok, err, v)
	}
}

// TestRedeliveredPutIsAcked: the identical item delivered twice — a
// pool retry whose first copy did arrive — is answered applied=true
// both times and logged once; a different item at that version, or a
// lower one, is refused with the version the replica holds.
func TestRedeliveredPutIsAcked(t *testing.T) {
	node, err := NewNode(Config{Daemon: daemon.Config{Name: "redeliver"}, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	send := func(cmd *cmdlang.CmdLine) (applied bool, version int64) {
		t.Helper()
		reply, err := pool.Call(node.Addr(), cmd)
		if err != nil {
			t.Fatal(err)
		}
		return reply.Bool("applied", false), reply.Int("version", -1)
	}
	for i := 0; i < 2; i++ {
		if applied, v := send(putCommand("/re/x", []byte("one"), 7)); !applied || v != 7 {
			t.Fatalf("delivery %d: applied=%v version=%d, want true 7", i+1, applied, v)
		}
	}
	if applied, v := send(putCommand("/re/x", []byte("two"), 7)); applied || v != 7 {
		t.Fatalf("another value at the held version: applied=%v version=%d, want false 7", applied, v)
	}
	if applied, v := send(putCommand("/re/x", []byte("old"), 6)); applied || v != 7 {
		t.Fatalf("a lower version: applied=%v version=%d, want false 7", applied, v)
	}
	del := func() *cmdlang.CmdLine {
		return cmdlang.New("psdel").SetString("path", "/re/x").SetInt("version", 8)
	}
	for i := 0; i < 2; i++ {
		if applied, v := send(del()); !applied || v != 8 {
			t.Fatalf("tombstone delivery %d: applied=%v version=%d, want true 8", i+1, applied, v)
		}
	}
	if it, ok := node.get("/re/x"); ok {
		t.Fatalf("tombstoned path still readable: %+v", it)
	}
	if n := node.Telemetry().Snapshot().Counter(MetricWALAppends); n != 2 {
		t.Fatalf("%d log records for one put and one tombstone, each delivered twice", n)
	}
}

// TestPutIsOneRound: a put on an uncontended path is three frames, one
// psput per replica; asking a replica for the path's version first
// would be a fourth.
func TestPutIsOneRound(t *testing.T) {
	cluster, _ := startCluster(t, 3, "")
	pool, reg := telemetryPool(t, time.Second)
	client := NewClient(pool, startGatedReplicas(t, cluster))
	defer client.Close()
	// Connections are dialled by the first call to each replica.
	if _, err := client.Put("/one/warm", []byte("w")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	before := reg.Snapshot().Counter(wire.MetricFramesSent)
	if _, err := client.Put("/one/x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	snap := reg.Snapshot()
	if frames := snap.Counter(wire.MetricFramesSent) - before; frames != 3 {
		t.Fatalf("%d frames sent for one put, want 3", frames)
	}
	if n := snap.Counter(MetricWriteConflicts); n != 0 {
		t.Fatalf("%d conflict rounds on an uncontended path", n)
	}
}

// startRawReplicas starts n bare listeners that answer every write
// applied at its own version and pass on each frame's payload as it
// arrived, header and all.
func startRawReplicas(t *testing.T, n int) ([]string, <-chan []byte) {
	t.Helper()
	// Room for every frame a test of a few writes sends, so no listener
	// blocks handing one over.
	payloads := make(chan []byte, 64)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					in := wire.NewReader(conn)
					for {
						payload, err := in.ReadFrame()
						if err != nil {
							return
						}
						payloads <- payload
						_, _, text := wire.SplitPayload(payload)
						cmd, err := cmdlang.ParseBytes(text)
						if err != nil {
							return
						}
						reply := cmdlang.OK().SetBool("applied", true).SetInt("version", cmd.Int("version", 0))
						if _, err := wire.WriteReply(conn, reply, cmd.Int(cmdlang.SeqArg, 0)); err != nil {
							return
						}
					}
				}()
			}
		}()
	}
	return addrs, payloads
}

// TestUntracedWriteFramesCarryNoHeader: a write's stamp is its version
// argument and nothing else, so an untraced put or delete reaches each
// replica as bare command text, with no header in front.
func TestUntracedWriteFramesCarryNoHeader(t *testing.T) {
	addrs, payloads := startRawReplicas(t, 3)
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	client := NewClient(pool, addrs)
	defer client.Close()
	ctx := context.Background()
	if _, err := client.PutContext(ctx, "/bare/x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteContext(ctx, "/bare/x"); err != nil {
		t.Fatal(err)
	}
	client.Close() // stragglers have sent what they will
	sent := map[string]int{}
	for len(payloads) > 0 {
		payload := <-payloads
		verb, _, _ := strings.Cut(string(payload), " ")
		if verb != "psput" && verb != "psdel" {
			t.Fatalf("replica received %q, want bare psput or psdel text", payload)
		}
		sent[verb]++
	}
	if sent["psput"] < 2 || sent["psdel"] < 2 {
		t.Fatalf("frames received %v, want a majority of each", sent)
	}
}

// TestDualApplySharesOneStamp: a write to a moving partition lands on
// source and destination at one version, and a refusal from either
// group — here the destination, holding a version from the future —
// moves both to the retry's version.
func TestDualApplySharesOneStamp(t *testing.T) {
	nodes, groups := startShardGroups(t, "g1", "g2", "g3")
	dir := startShardASD(t)
	pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry()})
	defer pool.Close()
	ctx := context.Background()
	co := NewCoordinator(pool, dir.Addr())
	boot, err := co.Bootstrap(ctx, 7, 32, 64, groups[:2])
	if err != nil {
		t.Fatal(err)
	}
	moving, changed := planTransition(boot, groups)
	if !changed {
		t.Fatal("growing to three groups moves nothing")
	}
	if err := co.Publish(ctx, moving); err != nil {
		t.Fatal(err)
	}
	mv := moving.Moves[0]
	path := ""
	for i := 0; path == ""; i++ {
		if p := shardKey(i); placement.PartitionOf(p, moving.Partitions) == mv.Partition {
			path = p
		}
	}
	src, dst := nodes[moving.Groups[mv.From].Name], nodes[moving.Groups[mv.To].Name]
	// held returns the version a majority of a group's replicas hold.
	held := func(group []*Node) uint64 {
		t.Helper()
		count := map[uint64]int{}
		for _, n := range group {
			count[n.Digest()[path]]++
		}
		for v, c := range count {
			if c >= 2 {
				return v
			}
		}
		t.Fatalf("no majority version among %v", count)
		return 0
	}

	sc := NewSharded(pool, placement.NewCache(pool, dir.Addr()))
	defer sc.Close()
	v1, err := sc.Put(path, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if s, d := held(src), held(dst); s != v1 || d != v1 {
		t.Fatalf("acknowledged at %d, source holds %d, destination %d", v1, s, d)
	}

	future := v1 + uint64(hlc.Make(time.Hour.Milliseconds(), 0))
	for _, n := range dst {
		n.apply(Item{Path: path, Value: []byte("from the future"), Version: future})
	}
	v2, err := sc.Put(path, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if v2 <= future {
		t.Fatalf("acknowledged at %d, not above the destination's %d", v2, future)
	}
	if s, d := held(src), held(dst); s != v2 || d != v2 {
		t.Fatalf("acknowledged at %d, source holds %d, destination %d", v2, s, d)
	}
	if err := sc.Delete(path); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if s, d := held(src), held(dst); s <= v2 || s != d {
		t.Fatalf("tombstone after %d: source holds %d, destination %d", v2, s, d)
	}
}
