// Package pstore implements the ACE Persistent Store (§6, Fig 17):
// a cluster of three completely redundant storage servers that
// perform constant data synchronization so ACE services, user
// workspaces, and robust applications can always recover their last
// known state, even when one or two of the servers fail.
//
// Each node is an ACE daemon holding a versioned, hierarchical
// object-oriented namespace ("/wss/workspaces/john_doe/1"). Clients
// write through a majority quorum and read the highest version seen
// by a majority; nodes run anti-entropy synchronization so a crashed
// and restarted (or wiped) node converges back to its peers. Nodes
// optionally persist every accepted write through a durable storage
// engine (internal/pstore/storage): a group-commit write-ahead log
// with compacted snapshots, recovered at startup. A write is
// acknowledged only after it is fsync-durable; a node whose log is
// failing answers `busy` instead of lying about durability.
package pstore

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
)

// Item is one versioned object in the namespace.
type Item struct {
	Path    string
	Value   []byte
	Version uint64
	Deleted bool
}

// newer orders the replies of one quorum read: the higher version
// wins, and equal versions with different content — two writers drew
// one stamp, each still held somewhere — fall to a deterministic
// tiebreak. Replicas themselves never break ties (applyMemLocked).
func newer(a, b Item) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	if a.Deleted != b.Deleted {
		return a.Deleted // deletes win ties
	}
	return string(a.Value) > string(b.Value)
}

// Node is one persistent-store server.
type Node struct {
	*daemon.Daemon

	mu    sync.Mutex
	items map[string]Item
	// unsynced holds each write this node applied whose log record is
	// not yet durable, with the re-deliveries of it waiting to be acked
	// when it is (see applyAsync and applyDurableBatch). Guarded by mu.
	unsynced map[writeKey][]redelivery

	eng      *storage.Engine
	recovery storage.RecoveryInfo
	// degraded latches once the storage engine refuses durability:
	// the node stops acknowledging writes (retryable busy) so a dead
	// disk cannot silently count toward quorums. Reads still serve.
	degraded     atomic.Bool
	snapInFlight atomic.Bool
	snapWG       sync.WaitGroup

	peers    []string
	syncStop chan struct{}
	syncWG   sync.WaitGroup

	mSyncRounds *telemetry.Counter
	mSyncPulled *telemetry.Counter
	mWrites     *telemetry.Counter
}

// Config describes one store node.
type Config struct {
	// Daemon is the underlying shell configuration.
	Daemon daemon.Config
	// Dir, when non-empty, enables durable storage: the node keeps a
	// group-commit WAL and compacted snapshots under Dir/<name>/ and
	// recovers from them at startup.
	Dir string
	// Storage tunes the storage engine (segment size, snapshot
	// threshold, corruption policy, injectable FS). Zero value =
	// production defaults.
	Storage storage.Options
	// SyncInterval is the anti-entropy period; 0 disables the
	// background loop (Sync can still be driven manually).
	SyncInterval time.Duration
}

// NewNode constructs a store node. If cfg.Dir is set, previous WAL
// contents are replayed before the node serves.
func NewNode(cfg Config) (*Node, error) {
	dcfg := cfg.Daemon
	if dcfg.Name == "" {
		dcfg.Name = "pstore"
	}
	if dcfg.Class == "" {
		dcfg.Class = hier.ClassDatabase + ".PersistentStore"
	}
	// Anti-entropy is control-plane: replica convergence must survive
	// a client overload, so the sync verbs admit into the flow
	// controller's reserved headroom alongside lease renewals.
	dcfg.ControlVerbs = append(dcfg.ControlVerbs, "psdigest", "psfetch")
	n := &Node{
		Daemon:   daemon.New(dcfg),
		items:    make(map[string]Item),
		unsynced: make(map[writeKey][]redelivery),
		syncStop: make(chan struct{}),
	}
	tel := n.Telemetry()
	n.mSyncRounds = tel.Counter(MetricSyncRounds)
	n.mSyncPulled = tel.Counter(MetricSyncPulled)
	n.mWrites = tel.Counter(MetricWritesApplied)
	if cfg.Dir != "" {
		opts := cfg.Storage
		opts.Metrics = storage.Metrics{
			Appends:           tel.Counter(MetricWALAppends),
			AppendErrors:      tel.Counter(MetricWALAppendErrors),
			Syncs:             tel.Counter(MetricWALSyncs),
			Snapshots:         tel.Counter(MetricSnapshots),
			SnapshotErrors:    tel.Counter(MetricSnapshotErrors),
			SegmentsTruncated: tel.Counter(MetricSegmentsTruncated),
			Replayed:          tel.Counter(MetricRecoveryReplayed),
			TornTails:         tel.Counter(MetricRecoveryTornTail),
			CorruptRecords:    tel.Counter(MetricRecoveryCorrupt),
			SnapshotsBad:      tel.Counter(MetricRecoveryBadSnaps),
			WALBytes:          tel.Gauge(MetricWALBytes),
			WALSegments:       tel.Gauge(MetricWALSegments),
		}
		eng, recovered, info, err := storage.Open(filepath.Join(cfg.Dir, dcfg.Name), opts)
		if err != nil {
			return nil, fmt.Errorf("pstore: open storage: %w", err)
		}
		n.eng = eng
		n.recovery = info
		// Replay through the same last-writer-wins merge normal writes
		// use, so recovery is insensitive to log order.
		n.mu.Lock()
		n.items = make(map[string]Item, len(recovered))
		for _, rec := range recovered {
			n.applyMemLocked(Item{Path: rec.Path, Value: rec.Value, Version: rec.Version, Deleted: rec.Deleted})
		}
		n.mu.Unlock()
	}
	n.install()
	if cfg.SyncInterval > 0 {
		n.syncWG.Add(1)
		go n.syncLoop(cfg.SyncInterval)
	}
	return n, nil
}

// Recovery reports what the storage engine found at startup.
func (n *Node) Recovery() storage.RecoveryInfo { return n.recovery }

// Degraded reports whether the node has stopped acknowledging writes
// because its storage engine refused durability.
func (n *Node) Degraded() bool { return n.degraded.Load() }

// SetPeers configures the other replicas this node synchronizes with.
func (n *Node) SetPeers(addrs []string) {
	n.mu.Lock()
	n.peers = append([]string(nil), addrs...)
	n.mu.Unlock()
}

// Stop halts synchronization, the daemon, and the WAL.
func (n *Node) Stop() {
	select {
	case <-n.syncStop:
	default:
		close(n.syncStop)
	}
	n.syncWG.Wait()
	n.Daemon.Stop()
	n.snapWG.Wait()
	if n.eng != nil {
		_ = n.eng.Close()
	}
}

// Crash abandons the node without clean shutdown: the daemon stops
// serving, but the storage engine is dropped mid-flight — no final
// fsync, no close. Combined with an injected FS whose unsynced writes
// vanish (chaos.DiskFS), this is a process kill. Test hook for
// kill-and-restart chaos; production shutdown is Stop.
func (n *Node) Crash() {
	select {
	case <-n.syncStop:
	default:
		close(n.syncStop)
	}
	n.syncWG.Wait()
	if n.eng != nil {
		n.eng.Crash()
	}
	n.Daemon.Stop()
	n.snapWG.Wait()
}

// applyMemLocked is last-writer-wins on the version alone: a replica
// never changes what it holds at a version. That is what lets
// `applied=true` count toward a stamped write's quorum — of two writes
// at one version a replica says it to the first only, so they cannot
// both collect a majority. Replay merges through it too, so the
// callers that take a write from a client or a peer count it.
func (n *Node) applyMemLocked(it Item) bool {
	if cur, exists := n.items[it.Path]; exists && it.Version <= cur.Version {
		return false
	}
	n.items[it.Path] = it
	return true
}

// degradedRetryAfter is the retry hint sent with busy replies from a
// node whose disk refused durability: long enough that the client's
// quorum machinery prefers healthy replicas, short enough that a
// restarted (recovered) node is retried promptly.
const degradedRetryAfter = 100 * time.Millisecond

// writeReply answers psput and psdel: whether the replica holds the
// command's item, and the version it holds now — the equal or later
// one that refused the command otherwise, which its writer retries
// above.
func writeReply(applied bool, held uint64) *cmdlang.CmdLine {
	return cmdlang.OK().SetBool("applied", applied).SetInt("version", int64(held))
}

// sameWrite reports whether held is exactly the item a command carries:
// a re-delivery (a pool retry whose first copy did arrive, or a write's
// spare leg to a replica it told) is answered applied=true without a
// second log record, once the first copy is durable.
func sameWrite(held, it Item) bool {
	return held.Version == it.Version && held.Deleted == it.Deleted && bytes.Equal(held.Value, it.Value)
}

// writeKey names one write: a path at a version.
type writeKey struct {
	path    string
	version uint64
}

// redelivery is a re-delivered write waiting for its first copy's log
// record: a detached invocation, or, where the dispatch cannot detach,
// a channel its handler waits on.
type redelivery struct {
	finish daemon.Detached
	wait   chan *cmdlang.CmdLine
}

// synced ends the wait of the write named by key for its log record:
// err is the append's outcome. It returns the write's reply, which the
// re-deliveries that waited for the record are sent too.
func (n *Node) synced(key writeKey, err error) *cmdlang.CmdLine {
	n.mu.Lock()
	waiting := n.unsynced[key]
	delete(n.unsynced, key)
	n.mu.Unlock()
	reply := writeReply(true, key.version)
	if err != nil {
		n.degraded.Store(true)
		reply = cmdlang.Busy(degradedRetryAfter)
	}
	for _, w := range waiting {
		if w.wait != nil {
			w.wait <- reply
		} else {
			w.finish.Finish(reply)
		}
	}
	return reply
}

// handleWrite is what psput and psdel share: the path and version
// checks, then the item through applyAsync. The disk refusing
// durability answers busy (retryable, not a definitive failure) so the
// quorum counts someone else.
func (n *Node) handleWrite(ctx *daemon.Ctx, c *cmdlang.CmdLine, value []byte, deleted bool) (*cmdlang.CmdLine, error) {
	version := c.Int("version", 0)
	if version < 0 {
		// Accepting a negative version would wrap to a huge uint64
		// that wins every later quorum read.
		return cmdlang.Fail(cmdlang.CodeBadArgument, fmt.Sprintf("negative version %d", version)), nil
	}
	path := c.Str("path", "")
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	return n.applyAsync(ctx, Item{Path: path, Value: value, Version: uint64(version), Deleted: deleted})
}

// applyAsync is the handler-side write path: install in memory, then
// make the record durable WITHOUT holding the daemon's serial section
// through the fsync. The commit point for an acknowledgment is
// the fsync — a write whose append fails is NOT acked, the node latches
// degraded, and the caller is answered `busy` so the quorum counts
// someone else. Memory may then be ahead of the log; anti-entropy and
// the restart replay reconcile that, and last-writer-wins makes the
// overlap idempotent. The invocation detaches, the engine's
// commit loop batches this record with every other write in flight
// (group commit), and the ack goes out when the covering fsync
// returns. Detaching is what creates the batch: if the serial section
// blocked per write, the engine would only ever see one append at a
// time and every write would pay a private fsync. A re-delivery of a
// write whose record is still on its way to the disk detaches too, and
// is acked with the write: an ack counts toward a quorum only for a
// copy that is durable.
func (n *Node) applyAsync(ctx *daemon.Ctx, it Item) (*cmdlang.CmdLine, error) {
	if n.degraded.Load() {
		return cmdlang.Busy(degradedRetryAfter), nil
	}
	key := writeKey{it.Path, it.Version}
	n.mu.Lock()
	applied := n.applyMemLocked(it)
	held := n.items[it.Path]
	if n.eng != nil {
		if applied {
			n.unsynced[key] = nil
		} else if waiting, unsynced := n.unsynced[key]; unsynced && sameWrite(held, it) {
			var w redelivery
			finish, detached := ctx.Detach()
			if detached {
				w.finish = finish
			} else {
				w.wait = make(chan *cmdlang.CmdLine, 1)
			}
			n.unsynced[key] = append(waiting, w)
			n.mu.Unlock()
			if !detached {
				return <-w.wait, nil
			}
			return nil, nil
		}
	}
	n.mu.Unlock()
	if applied {
		n.mWrites.Inc()
	}
	if !applied || n.eng == nil {
		// Refused, or re-delivered once its record was durable: there is
		// nothing new to log.
		return writeReply(applied || sameWrite(held, it), held.Version), nil
	}
	rec := storage.Record{Path: it.Path, Value: it.Value, Version: it.Version, Deleted: it.Deleted}
	finish, ok := ctx.Detach()
	if !ok {
		// Local/nested dispatch: pay the fsync on this goroutine.
		err := n.eng.Append(rec)
		if err == nil {
			n.maybeSnapshot()
		}
		return n.synced(key, err), nil
	}
	n.eng.AppendAsync(rec, func(err error) {
		if err == nil {
			n.maybeSnapshot()
		}
		finish.Finish(n.synced(key, err))
	})
	return nil, nil
}

// maybeSnapshot starts one background compaction when the log has
// outgrown its threshold: seal the segments, write the current state
// as an atomic snapshot, truncate the covered log. Single-flight; a
// failed snapshot only costs disk space, never data, so it does not
// degrade the node.
func (n *Node) maybeSnapshot() {
	if n.eng == nil || !n.eng.ShouldSnapshot() || !n.snapInFlight.CompareAndSwap(false, true) {
		return
	}
	n.snapWG.Add(1)
	go func() {
		defer n.snapWG.Done()
		defer n.snapInFlight.Store(false)
		_ = n.eng.Snapshot(n.snapshotRecords) // counted via pstore.snapshot.errors
	}()
}

// snapshotRecords collects the node's full state (tombstones
// included) for a compacted snapshot. Called by the engine after the
// log is sealed, so it is guaranteed to cover every sealed record.
func (n *Node) snapshotRecords() []storage.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	recs := make([]storage.Record, 0, len(n.items))
	for _, it := range n.items {
		recs = append(recs, storage.Record{Path: it.Path, Value: it.Value, Version: it.Version, Deleted: it.Deleted})
	}
	return recs
}

// Digest returns every path's version (including tombstones), the
// anti-entropy exchange unit.
func (n *Node) Digest() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]uint64, len(n.items))
	for p, it := range n.items {
		out[p] = it.Version
	}
	return out
}

// Len returns the number of live (non-tombstone) items.
func (n *Node) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, it := range n.items {
		if !it.Deleted {
			c++
		}
	}
	return c
}

// syncBatch is how many pulled items are made durable per WAL batch
// during sync (shared fsyncs via group commit).
const syncBatch = 64

// SyncWith pulls every item the peer holds at a newer version than
// this node (one direction of Fig 17's constant data
// synchronization). It returns the number of items pulled. Pulled
// items are made durable in batches so a bulk pull shares fsyncs
// instead of paying one per item.
func (n *Node) SyncWith(peerAddr string) (int, error) {
	ctx := context.Background()
	n.mSyncRounds.Inc()
	paths, versions, err := fetchDigest(ctx, n.Pool(), peerAddr)
	if err != nil {
		return 0, err
	}
	pulled := 0
	batch := make([]Item, 0, syncBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		applied, aerr := n.applyDurableBatch(batch)
		batch = batch[:0]
		if aerr != nil {
			// A node that cannot log what it pulls must not advertise
			// it either: abort the round.
			return aerr
		}
		if applied > 0 {
			pulled += applied
			n.mSyncPulled.Add(int64(applied))
		}
		return nil
	}
	// abort flushes what was already fetched (those items are good)
	// before surfacing the error that ends the round.
	abort := func(err error) (int, error) {
		if ferr := flush(); ferr != nil {
			return pulled, ferr
		}
		return pulled, err
	}
	for i, p := range paths {
		n.mu.Lock()
		cur, exists := n.items[p]
		n.mu.Unlock()
		if exists && cur.Version >= versions[i] {
			continue
		}
		itemReply, err := n.Pool().CallContext(ctx, peerAddr, cmdlang.New("psfetch").SetString("path", p))
		if err != nil {
			return abort(err)
		}
		val, valErr := replyValue(itemReply, peerAddr)
		if valErr != nil {
			// Never replicate corruption: abort the pull so the next
			// anti-entropy round retries against a healthy peer.
			return abort(fmt.Errorf("pstore: sync with %s: %w", peerAddr, valErr))
		}
		ver, verErr := replyVersion(itemReply, peerAddr)
		if verErr != nil {
			return abort(fmt.Errorf("pstore: sync with %s: %w", peerAddr, verErr))
		}
		batch = append(batch, Item{
			Path:    p,
			Value:   bytes.Clone(val), // not the reply frame (see psput)
			Version: ver,
			Deleted: itemReply.Bool("deleted", false),
		})
		if len(batch) >= syncBatch {
			if ferr := flush(); ferr != nil {
				return pulled, ferr
			}
		}
	}
	if ferr := flush(); ferr != nil {
		return pulled, ferr
	}
	return pulled, nil
}

// fetchDigest asks addr for its path→version digest. It refuses a
// reply whose two vectors differ in length, and one advertising a
// negative version: that would wrap to ~1.8e19 and make the puller
// pull (and re-advertise) a poisoned item.
func fetchDigest(ctx context.Context, pool *daemon.Pool, addr string) ([]string, []uint64, error) {
	reply, err := pool.CallContext(ctx, addr, cmdlang.New("psdigest"))
	if err != nil {
		return nil, nil, err
	}
	paths := reply.Strings("paths")
	raw := reply.Vector("versions")
	if len(paths) != len(raw) {
		return nil, nil, fmt.Errorf("pstore: malformed digest from %s", addr)
	}
	versions := make([]uint64, len(raw))
	for i, p := range paths {
		v, _ := raw[i].AsInt()
		if v < 0 {
			return nil, nil, fmt.Errorf("pstore: corrupt digest from %s: negative version %d at %s", addr, v, p)
		}
		versions[i] = uint64(v)
	}
	return paths, versions, nil
}

// applyDurableBatch installs items in memory and logs the applied
// ones as one bulk append, which the commit loop writes BatchMax
// records per fsync. Returns how many items were applied in memory. Like
// applyAsync, it has a re-delivery of an applied item wait for the
// append, and a refused append latches degraded.
func (n *Node) applyDurableBatch(items []Item) (int, error) {
	if n.eng != nil && n.degraded.Load() {
		return 0, fmt.Errorf("pstore: storage degraded: %w", n.eng.Err())
	}
	n.mu.Lock()
	applied := 0
	recs := make([]storage.Record, 0, len(items))
	for _, it := range items {
		if n.applyMemLocked(it) {
			applied++
			recs = append(recs, storage.Record{Path: it.Path, Value: it.Value, Version: it.Version, Deleted: it.Deleted})
			if n.eng != nil {
				n.unsynced[writeKey{it.Path, it.Version}] = nil
			}
		}
	}
	n.mu.Unlock()
	n.mWrites.Add(int64(applied))
	if n.eng == nil || len(recs) == 0 {
		return applied, nil
	}
	err := n.eng.AppendBatch(recs)
	for _, r := range recs {
		n.synced(writeKey{r.Path, r.Version}, err)
	}
	if err != nil {
		return applied, fmt.Errorf("pstore: wal append: %w", err)
	}
	n.maybeSnapshot()
	return applied, nil
}

// SyncAll runs SyncWith against every configured peer.
func (n *Node) SyncAll() int {
	n.mu.Lock()
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()
	total := 0
	for _, p := range peers {
		if pulled, err := n.SyncWith(p); err == nil {
			total += pulled
		}
	}
	return total
}

func (n *Node) syncLoop(interval time.Duration) {
	defer n.syncWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.syncStop:
			return
		case <-t.C:
			n.SyncAll()
		}
	}
}

func (n *Node) install() {
	n.Handle(cmdlang.CommandSpec{
		Name: "psput",
		Doc:  "store an object at a namespace path",
		Args: []cmdlang.ArgSpec{
			{Name: "path", Kind: cmdlang.KindString, Required: true},
			{Name: "value", Kind: cmdlang.KindBytes, Required: true, Doc: "the object; a string is taken as its bytes"},
			{Name: "version", Kind: cmdlang.KindInt, Required: true},
		},
	}, func(ctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		// The value is a slice of the received frame: stored as it is, a
		// 256-byte value would pin a frame of some 340 bytes for the
		// item's life. A node keeps its own copy.
		val, _ := c.Bytes("value")
		return n.handleWrite(ctx, c, bytes.Clone(val), false)
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "psget",
		Doc:  "read the item at a path (a tombstone answers deleted=true)",
		Args: []cmdlang.ArgSpec{
			{Name: "path", Kind: cmdlang.KindString, Required: true},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		path := c.Str("path", "")
		n.mu.Lock()
		it, ok := n.items[path]
		n.mu.Unlock()
		if !ok {
			return cmdlang.Fail(cmdlang.CodeNotFound, "no object at path"), nil
		}
		reply := cmdlang.OK().
			SetBytes("value", it.Value).
			SetInt("version", int64(it.Version))
		if it.Deleted {
			// The tombstone's version is what lets a quorum read rank the
			// deletion above an older value a lagging replica still holds.
			reply.SetBool("deleted", true)
		}
		return reply, nil
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "psdel",
		Doc:  "delete an object (writes a tombstone)",
		Args: []cmdlang.ArgSpec{
			{Name: "path", Kind: cmdlang.KindString, Required: true},
			{Name: "version", Kind: cmdlang.KindInt, Required: true},
		},
	}, func(ctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		return n.handleWrite(ctx, c, nil, true)
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "pslist",
		Doc:  "list live paths under a prefix",
		Args: []cmdlang.ArgSpec{{Name: "prefix", Kind: cmdlang.KindString}},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		prefix := c.Str("prefix", "")
		n.mu.Lock()
		var paths []string
		for p, it := range n.items {
			if !it.Deleted && strings.HasPrefix(p, prefix) {
				paths = append(paths, p)
			}
		}
		n.mu.Unlock()
		sort.Strings(paths)
		return cmdlang.OK().SetInt("count", int64(len(paths))).Set("paths", cmdlang.StringVector(paths...)), nil
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "psdigest",
		Doc:  "anti-entropy digest: every path and its version",
	}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		digest := n.Digest()
		paths := make([]string, 0, len(digest))
		for p := range digest {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		versions := make([]int64, len(paths))
		for i, p := range paths {
			versions[i] = int64(digest[p])
		}
		return cmdlang.OK().
			Set("paths", cmdlang.StringVector(paths...)).
			Set("versions", cmdlang.IntVector(versions...)), nil
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "psfetch",
		Doc:  "fetch an item verbatim (including tombstones) for sync",
		Args: []cmdlang.ArgSpec{
			{Name: "path", Kind: cmdlang.KindString, Required: true},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		path := c.Str("path", "")
		n.mu.Lock()
		it, ok := n.items[path]
		n.mu.Unlock()
		if !ok {
			return cmdlang.Fail(cmdlang.CodeNotFound, "no item"), nil
		}
		return cmdlang.OK().
			SetBytes("value", it.Value).
			SetInt("version", int64(it.Version)).
			SetBool("deleted", it.Deleted), nil
	})
}

// ValidatePath checks a namespace path: absolute, no empty segments.
func ValidatePath(path string) error {
	if !strings.HasPrefix(path, "/") {
		return fmt.Errorf("pstore: path %q is not absolute", path)
	}
	if strings.Contains(path, "//") || path == "/" {
		return fmt.Errorf("pstore: path %q has empty segments", path)
	}
	return nil
}
