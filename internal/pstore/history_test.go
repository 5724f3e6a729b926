package pstore

// A recorded-history check of what the store promises about one key
// under racing writers: every operation of a run is recorded with the
// instants it was invoked and returned, and the history is then held
// against the rules of a versioned register.
//
// Promised, and checked per key:
//
//  1. acknowledged puts have pairwise distinct versions;
//  2. a put acknowledged before another was invoked has the lower
//     version;
//  3. a read returns no version below that of a put acknowledged
//     before the read was invoked — for a bounded(Δ) read, before Δ
//     ahead of its invocation — and no put that a delete, itself
//     acknowledged before then, was invoked after;
//  4. a value read is the value of a put invoked before the read
//     returned, at a version no higher than that put was acknowledged
//     at (a put refused at its first stamp carries its value at
//     rising versions until one is acknowledged);
//  5. a client's reads do not go back: a later read returns no version
//     below an earlier one's, Δ or no Δ, once the earlier one's put
//     was acknowledged;
//  6. a read finds nothing only if no put was acknowledged before it,
//     or some delete was invoked before the read returned that no
//     acknowledged put separates from it.
//
// NOT promised, and so not flagged:
//
//   - Two writes in flight that drew the same stamp may each be seen
//     at that version until the loser's retry commits: a replica
//     keeps the first to arrive, and a reader takes either.
//   - A read may return a write that is not acknowledged yet (still in
//     flight, or refused and about to be retried higher) and a later
//     read miss it: read repair runs behind the read, not before its
//     answer. Rule 5 starts at the acknowledgment.
//   - A delete returns no version to its caller, so deletes are placed
//     by the instants they were invoked and returned alone (rules 3
//     and 6): one that overlaps a put is not ordered against it.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ace/internal/chaos"
	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore/storage"
)

type histKind int

const (
	histPut histKind = iota
	histDelete
	histGet
	histBoundedGet
)

// histOp is one completed operation. Instants are offsets from the
// run's start on the monotonic clock.
type histOp struct {
	client      int
	kind        histKind
	key         string
	invoke, ret time.Duration
	value       string // written, or read
	version     uint64 // acknowledged at, or read at
	found       bool   // reads
	err         error
}

func (o histOp) isRead() bool { return o.kind == histGet || o.kind == histBoundedGet }

func (o histOp) String() string {
	kind := [...]string{"put", "delete", "get", "bounded get"}[o.kind]
	return fmt.Sprintf("client %d %s %s [%v, %v] value=%q version=%d found=%v err=%v",
		o.client, kind, o.key, o.invoke, o.ret, o.value, o.version, o.found, o.err)
}

// history collects the operations of concurrent clients.
type history struct {
	start time.Time
	mu    sync.Mutex
	ops   []histOp
}

func (h *history) record(op histOp) {
	h.mu.Lock()
	h.ops = append(h.ops, op)
	h.mu.Unlock()
}

// checkHistory returns every breach of the rules above; bound is the
// Δ of the bounded reads.
func checkHistory(ops []histOp, bound time.Duration) []string {
	var bad []string
	flag := func(rule string, ops ...histOp) {
		lines := []string{rule}
		for _, o := range ops {
			lines = append(lines, "    "+o.String())
		}
		bad = append(bad, strings.Join(lines, "\n"))
	}
	byKey := map[string][]histOp{}
	for _, o := range ops {
		byKey[o.key] = append(byKey[o.key], o)
	}
	for _, kops := range byKey {
		slices.SortFunc(kops, func(a, b histOp) int { return int(a.invoke - b.invoke) })
		var acked, deletes, reads []histOp
		byValue := map[string]histOp{}
		for _, o := range kops {
			switch {
			case o.kind == histPut:
				byValue[o.value] = o
				if o.err == nil {
					acked = append(acked, o)
				}
			case o.kind == histDelete:
				deletes = append(deletes, o)
			case o.err == nil:
				reads = append(reads, o)
			}
		}
		for i, a := range acked {
			for _, b := range acked[i+1:] {
				if a.version == b.version {
					flag("rule 1: one version acknowledged to two puts", a, b)
				}
				if a.ret < b.invoke && a.version >= b.version {
					flag("rule 2: a put acknowledged before another was invoked has the higher version", a, b)
				}
			}
		}
		lastRead := map[int]histOp{}
		for _, r := range reads {
			horizon := r.invoke
			if r.kind == histBoundedGet {
				horizon -= bound
			}
			if !r.found {
				explained := !slices.ContainsFunc(acked, func(p histOp) bool { return p.ret < horizon })
				for _, d := range deletes {
					if explained {
						break
					}
					explained = d.invoke < r.ret && !slices.ContainsFunc(acked, func(p histOp) bool {
						return d.ret < p.invoke && p.ret < horizon
					})
				}
				if !explained {
					flag("rule 6: nothing found, and no delete accounts for it", r)
				}
				continue
			}
			for _, p := range acked {
				if p.ret < horizon && r.version < p.version {
					flag("rule 3: a read returned a version below a put acknowledged before it", p, r)
				}
			}
			p, ok := byValue[r.value]
			switch {
			case !ok || p.invoke > r.ret:
				flag("rule 4: a read returned a value no put had been invoked with", r)
			case p.err == nil && r.version > p.version:
				flag("rule 4: a value read above the version its put was acknowledged at", p, r)
			}
			for _, d := range deletes {
				if ok && p.err == nil && d.err == nil && p.ret < d.invoke && d.ret < horizon {
					flag("rule 3: a read returned a put deleted before it", p, d, r)
				}
			}
			if prev, ok := lastRead[r.client]; ok && r.version < prev.version &&
				slices.ContainsFunc(acked, func(p histOp) bool { return p.version == prev.version && p.ret < r.invoke }) {
				flag("rule 5: a client's read went back behind its earlier read of an acknowledged put", prev, r)
			}
			lastRead[r.client] = r
		}
	}
	return bad
}

// TestCheckHistoryCatchesEachRule holds the checker to hand-made
// histories: a sound one passes, and one breach of each rule is found.
func TestCheckHistoryCatchesEachRule(t *testing.T) {
	ms := time.Millisecond
	put := func(client int, invoke, ret time.Duration, value string, version uint64) histOp {
		return histOp{client: client, kind: histPut, key: "/k", invoke: invoke, ret: ret, value: value, version: version}
	}
	get := func(client int, invoke, ret time.Duration, value string, version uint64) histOp {
		return histOp{client: client, kind: histGet, key: "/k", invoke: invoke, ret: ret, value: value, version: version, found: true}
	}
	miss := func(client int, invoke, ret time.Duration) histOp {
		return histOp{client: client, kind: histGet, key: "/k", invoke: invoke, ret: ret}
	}
	refused := put(2, 1*ms, 3*ms, "b", 0)
	refused.err = &versionConflict{held: 10}
	stale := get(1, 30*ms, 31*ms, "a", 10)
	stale.kind = histBoundedGet
	sound := []histOp{
		miss(1, 0, 1*ms),
		put(1, 1*ms, 2*ms, "a", 10), refused,
		get(3, 1*ms+ms/2, 1*ms+ms/2, "b", 9), // the refused put's first round, seen early
		get(1, 5*ms, 6*ms, "a", 10),
		put(2, 7*ms, 8*ms, "c", 20), stale,
		{client: 2, kind: histDelete, key: "/k", invoke: 40 * ms, ret: 41 * ms},
		miss(1, 42*ms, 43*ms),
	}
	if bad := checkHistory(sound, 50*ms); len(bad) != 0 {
		t.Fatalf("a sound history was flagged:\n%s", strings.Join(bad, "\n"))
	}
	for rule, ops := range map[string][]histOp{
		"rule 1": {put(1, 0, 2*ms, "a", 10), put(2, 1*ms, 3*ms, "b", 10)},
		"rule 2": {put(1, 0, 1*ms, "a", 10), put(2, 2*ms, 3*ms, "b", 9)},
		"rule 3": {put(1, 0, 1*ms, "a", 10), put(2, 2*ms, 3*ms, "b", 20), get(1, 4*ms, 5*ms, "a", 10)},
		"rule 3: a read returned a put deleted": {put(1, 0, 1*ms, "a", 10),
			{client: 2, kind: histDelete, key: "/k", invoke: 2 * ms, ret: 3 * ms}, get(1, 4*ms, 5*ms, "a", 10)},
		"rule 4": {put(1, 0, 1*ms, "a", 10), get(1, 2*ms, 3*ms, "z", 10)},
		"rule 5": {put(1, 0, 1*ms, "a", 10), put(2, 2*ms, 3*ms, "b", 20), get(1, 4*ms, 5*ms, "b", 20),
			{client: 1, kind: histBoundedGet, key: "/k", invoke: 6 * ms, ret: 7 * ms, value: "a", version: 10, found: true}},
		"rule 6": {put(1, 0, 1*ms, "a", 10), miss(1, 2*ms, 3*ms)},
	} {
		bad := checkHistory(ops, 50*ms)
		if len(bad) == 0 || !strings.HasPrefix(bad[0], rule) {
			t.Errorf("%s: a breach went unflagged, or as something else: %q", rule, bad)
		}
	}
}

const (
	histSeeds    = 50
	histClients  = 4
	histOpsEach  = 120
	histBound    = 20 * time.Millisecond
	histSkew     = 5 * time.Second
	histDowntime = 3 * time.Millisecond
)

// TestHistoryVersionedRegister runs, for each of 50 seeds, four clients
// mixing put, get, delete and bounded get on four keys of a 3-node
// durable cluster — one client's wall clock 5 s ahead or behind, and on
// every third seed one replica stopped and restarted mid-run — and
// holds the recorded history to the rules at the top of this file.
func TestHistoryVersionedRegister(t *testing.T) {
	for seed := 1; seed <= histSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) { runHistorySeed(t, int64(seed)) })
	}
}

func runHistorySeed(t *testing.T, seed int64) {
	disks := make([]*chaos.DiskFS, 3)
	nodes := make([]*Node, 3)
	boot := func(i int, listen string) {
		t.Helper()
		n, err := NewNode(Config{
			Daemon:  daemon.Config{Name: fmt.Sprintf("hist%d", i), Listen: listen},
			Dir:     "/data",
			Storage: storage.Options{FS: disks[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for i := range nodes {
		disks[i] = chaos.NewDiskFS()
		boot(i, "")
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	addrs := []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}

	pool := daemon.NewPoolConfig(daemon.PoolConfig{CallTimeout: 2 * time.Second})
	defer pool.Close()
	h := &history{start: time.Now()}
	var wg sync.WaitGroup
	for c := 0; c < histClients; c++ {
		client := NewClient(pool, addrs)
		defer client.Close()
		if c == histClients-1 {
			skew := histSkew
			if seed%2 == 0 {
				skew = -skew
			}
			client.clock = hlc.New(func() time.Time { return time.Now().Add(skew) }, 0, nil)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runHistoryClient(h, client, c, rand.New(rand.NewSource(seed*100+int64(c))))
		}(c)
	}
	if seed%3 == 0 {
		// Not before the clients have started, not after they are done.
		time.Sleep(histOpsEach / 4 * 200 * time.Microsecond)
		victim := int(seed/3) % len(nodes)
		nodes[victim].Stop()
		time.Sleep(histDowntime)
		boot(victim, addrs[victim])
	}
	wg.Wait()
	if bad := checkHistory(h.ops, histBound); len(bad) != 0 {
		t.Fatalf("%d breaches in %d operations:\n%s", len(bad), len(h.ops), strings.Join(bad, "\n"))
	}
	failed := 0
	for _, o := range h.ops {
		if o.err != nil {
			failed++
		}
	}
	if failed > len(h.ops)/4 {
		t.Fatalf("%d of %d operations failed: the history proves little", failed, len(h.ops))
	}
}

func runHistoryClient(h *history, client *Client, c int, rng *rand.Rand) {
	ctx := context.Background()
	for i := 0; i < histOpsEach; i++ {
		op := histOp{client: c, key: fmt.Sprintf("/hist/k%d", rng.Intn(4))}
		switch p := rng.Intn(100); {
		case p < 40:
			op.kind, op.value = histPut, fmt.Sprintf("c%d-%d", c, i)
		case p < 50:
			op.kind = histDelete
		case p < 75:
			op.kind = histGet
		default:
			op.kind = histBoundedGet
		}
		op.invoke = time.Since(h.start)
		var value []byte
		switch op.kind {
		case histPut:
			op.version, op.err = client.PutContext(ctx, op.key, []byte(op.value))
		case histDelete:
			op.err = client.DeleteContext(ctx, op.key)
		case histGet:
			value, op.version, op.found, op.err = client.GetContext(ctx, op.key)
		case histBoundedGet:
			value, op.version, op.found, op.err = client.GetBoundedContext(ctx, op.key, histBound)
		}
		op.ret = time.Since(h.start)
		if op.isRead() {
			op.value = string(value)
		}
		h.record(op)
	}
}
