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
	"ace/internal/pstore/placement"
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

	// Placement: the installed map (nil until a coordinator pushes one
	// via psmap — an unsharded node enforces nothing), this node's
	// group name, and the group's index in the installed map (-1 when
	// absent). Guarded by mu.
	group    string
	place    *placement.Map
	placeIdx int

	// transferSem bounds concurrent pspull transfers (they fan out
	// pulls and fsync batches); over the bound pspull answers busy.
	transferSem chan struct{}
	transferWG  sync.WaitGroup

	accepted int64 // writes applied (local or via sync)
	synced   int64 // items pulled by anti-entropy

	mSyncRounds    *telemetry.Counter
	mSyncPulled    *telemetry.Counter
	mWrites        *telemetry.Counter
	mPlaceInstalls *telemetry.Counter
	mPlaceRejects  *telemetry.Counter
	mPlacePulled   *telemetry.Counter
	mPlaceEpoch    *telemetry.Gauge
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
	// Group names the replica group this node belongs to in a sharded
	// deployment. It only takes effect once a placement map naming the
	// group is installed (psmap); empty or unmapped, the node behaves
	// like the classic unsharded store.
	Group string
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
	// controller's reserved headroom alongside lease renewals. Same
	// for the placement verbs: installing a new map and pulling a
	// moving partition are what ends an overloaded imbalance, so they
	// must not be shed with the data plane.
	dcfg.ControlVerbs = append(dcfg.ControlVerbs, "psdigest", "psfetch", "psmap", "pspull")
	n := &Node{
		Daemon:      daemon.New(dcfg),
		items:       make(map[string]Item),
		syncStop:    make(chan struct{}),
		group:       cfg.Group,
		placeIdx:    -1,
		transferSem: make(chan struct{}, 2),
	}
	tel := n.Telemetry()
	n.mSyncRounds = tel.Counter(MetricSyncRounds)
	n.mSyncPulled = tel.Counter(MetricSyncPulled)
	n.mWrites = tel.Counter(MetricWritesApplied)
	n.mPlaceInstalls = tel.Counter(placement.MetricInstalls)
	n.mPlaceRejects = tel.Counter(placement.MetricRejects)
	n.mPlacePulled = tel.Counter(placement.MetricTransferPulls)
	n.mPlaceEpoch = tel.Gauge(placement.MetricEpoch)
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
	n.transferWG.Wait()
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
	n.transferWG.Wait()
	n.snapWG.Wait()
}

// applyMemLocked is last-writer-wins on the version alone: a replica
// never changes what it holds at a version. That is what lets
// `applied=true` count toward a stamped write's quorum — of two writes
// at one version a replica says it to the first only, so they cannot
// both collect a majority.
func (n *Node) applyMemLocked(it Item) bool {
	if cur, exists := n.items[it.Path]; exists && it.Version <= cur.Version {
		return false
	}
	n.items[it.Path] = it
	n.accepted++
	n.mWrites.Inc()
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
// a re-delivery (a pool retry whose first copy did arrive) is answered
// applied=true without a second log record. If the first copy's fsync,
// possibly still in flight, fails, the node latches degraded — the
// exposure a retried write had when any ok counted.
func sameWrite(held, it Item) bool {
	return held.Version == it.Version && held.Deleted == it.Deleted && bytes.Equal(held.Value, it.Value)
}

// handleWrite is what psput and psdel share: the path, version and
// placement checks, then the item through applyAsync. The disk refusing
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
	if fail := n.routeCheck(path, c.Int("epoch", 0), true); fail != nil {
		return fail, nil
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
// time and every write would pay a private fsync.
func (n *Node) applyAsync(ctx *daemon.Ctx, it Item) (*cmdlang.CmdLine, error) {
	if n.degraded.Load() {
		return cmdlang.Busy(degradedRetryAfter), nil
	}
	n.mu.Lock()
	applied := n.applyMemLocked(it)
	held := n.items[it.Path]
	n.mu.Unlock()
	if !applied || n.eng == nil {
		// Refused or re-delivered, there is nothing new to log: what the
		// node holds is durable or in the middle of becoming so.
		return writeReply(applied || sameWrite(held, it), held.Version), nil
	}
	rec := storage.Record{Path: it.Path, Value: it.Value, Version: it.Version, Deleted: it.Deleted}
	finish, ok := ctx.Detach()
	if !ok {
		// Local/nested dispatch: pay the fsync on this goroutine.
		if err := n.eng.Append(rec); err != nil {
			n.degraded.Store(true)
			return cmdlang.Busy(degradedRetryAfter), nil
		}
		n.maybeSnapshot()
		return writeReply(true, it.Version), nil
	}
	n.eng.AppendAsync(rec, func(err error) {
		if err != nil {
			n.degraded.Store(true)
			finish(cmdlang.Busy(degradedRetryAfter))
			return
		}
		n.maybeSnapshot()
		finish(writeReply(true, it.Version))
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

// Counters returns lifetime accepted-write and synced-item counts.
func (n *Node) Counters() (accepted, synced int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.accepted, n.synced
}

// SyncWith pulls every item the peer holds at a newer version than
// this node (one direction of Fig 17's constant data
// synchronization). It returns the number of items pulled.
func (n *Node) SyncWith(peerAddr string) (int, error) {
	return n.syncFrom(context.Background(), peerAddr, -1, 0)
}

// syncBatch is how many pulled items are made durable per WAL batch
// during sync and partition transfer (shared fsyncs via group commit).
const syncBatch = 64

// syncFrom is the pull engine behind anti-entropy (partition < 0:
// everything) and rebalance transfer (partition >= 0: the peer's
// digest is restricted to one partition of the given count). Pulled
// items are made durable in batches so a bulk transfer shares fsyncs
// instead of paying one per item.
func (n *Node) syncFrom(ctx context.Context, peerAddr string, partition, partitions int) (int, error) {
	n.mSyncRounds.Inc()
	dig := cmdlang.New("psdigest")
	if partition >= 0 {
		dig.SetInt("partition", int64(partition)).SetInt("partitions", int64(partitions))
	}
	reply, err := n.Pool().CallContext(ctx, peerAddr, dig)
	if err != nil {
		return 0, err
	}
	paths := reply.Strings("paths")
	versions := reply.Vector("versions")
	if len(paths) != len(versions) {
		return 0, fmt.Errorf("pstore: malformed digest from %s", peerAddr)
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
			n.mu.Lock()
			n.synced += int64(applied)
			n.mu.Unlock()
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
		v, _ := versions[i].AsInt()
		if v < 0 {
			// A negative digest version would wrap to ~1.8e19 and make
			// this node pull (and re-advertise) a poisoned item.
			return abort(fmt.Errorf("pstore: corrupt digest from %s: negative version %d at %s", peerAddr, v, p))
		}
		n.mu.Lock()
		cur, exists := n.items[p]
		n.mu.Unlock()
		if exists && cur.Version >= uint64(v) {
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

// applyDurableBatch installs items in memory and logs the applied
// ones through one shared WAL batch: all appends are in the engine's
// queue before the first wait, so the commit loop coalesces their
// fsyncs. Returns how many items were applied in memory. Like
// applyAsync, a refused append latches degraded.
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
		}
	}
	n.mu.Unlock()
	if n.eng == nil || len(recs) == 0 {
		return applied, nil
	}
	if err := n.eng.AppendBatch(recs); err != nil {
		n.degraded.Store(true)
		return applied, fmt.Errorf("pstore: wal append: %w", err)
	}
	n.maybeSnapshot()
	return applied, nil
}

// Placement returns the installed placement map (nil on an unsharded
// node) and this node's group index within it (-1 when absent).
func (n *Node) Placement() (*placement.Map, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.place, n.placeIdx
}

// Group returns the replica-group name this node was configured with.
func (n *Node) Group() string { return n.group }

// routeCheck enforces the placement contract on a data-plane request
// addressed to path. reqEpoch is the client's placement epoch (0 when
// the client is unsharded — legacy traffic is admitted wherever it
// lands). It returns nil when the request may proceed, or the
// wrong_group fail reply the handler must return. The rules:
//
//   - no installed map: accept everything (unsharded compatibility);
//   - a stamped request older than the partition's last routing
//     change is rejected even by the owner — a client that stale
//     could single-apply a write that a concurrent move then fails
//     to carry to the new owner;
//   - the owning group serves reads and writes;
//   - the destination of an in-flight move accepts writes only
//     (reads stay on the source until cutover so they never miss
//     history the destination has not pulled yet).
func (n *Node) routeCheck(path string, reqEpoch int64, write bool) *cmdlang.CmdLine {
	n.mu.Lock()
	ps, gi := n.place, n.placeIdx
	n.mu.Unlock()
	if ps == nil {
		return nil
	}
	p := placement.PartitionOf(path, ps.Partitions)
	if reqEpoch > 0 && uint64(reqEpoch) < ps.Stamp[p] {
		n.mPlaceRejects.Inc()
		return wrongGroupReply(ps, p, fmt.Sprintf("epoch %d predates partition %d routing change at epoch %d", reqEpoch, p, ps.Stamp[p]))
	}
	if gi >= 0 {
		if ps.Assignment[p] == gi {
			return nil
		}
		if write {
			if mv := ps.MoveFor(p); mv != nil && mv.To == gi {
				return nil
			}
		}
	}
	n.mPlaceRejects.Inc()
	return wrongGroupReply(ps, p, fmt.Sprintf("group %q does not serve partition %d", n.group, p))
}

// wrongGroupReply builds the placement redirect, carrying the
// server's epoch and the partition's owning group so a stale client
// can tell how far behind it is before refetching the map.
func wrongGroupReply(ps *placement.Map, p int, msg string) *cmdlang.CmdLine {
	return cmdlang.Fail(cmdlang.CodeWrongGroup, msg).
		SetInt("epoch", int64(ps.Epoch)).
		SetString("owner", ps.Groups[ps.Assignment[p]].Name)
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
			{Name: "epoch", Kind: cmdlang.KindInt, Doc: "client placement epoch"},
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
			{Name: "epoch", Kind: cmdlang.KindInt, Doc: "client placement epoch"},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		path := c.Str("path", "")
		if fail := n.routeCheck(path, c.Int("epoch", 0), false); fail != nil {
			return fail, nil
		}
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
			{Name: "epoch", Kind: cmdlang.KindInt, Doc: "client placement epoch"},
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
		ps, gi := n.place, n.placeIdx
		var paths []string
		for p, it := range n.items {
			if it.Deleted || !strings.HasPrefix(p, prefix) {
				continue
			}
			// Retained copies of moved-away partitions are data the
			// group no longer serves: listing them would double-count
			// paths when the client unions lists across groups.
			if ps != nil && (gi < 0 || ps.Assignment[placement.PartitionOf(p, ps.Partitions)] != gi) {
				continue
			}
			paths = append(paths, p)
		}
		n.mu.Unlock()
		sort.Strings(paths)
		return cmdlang.OK().SetInt("count", int64(len(paths))).Set("paths", cmdlang.StringVector(paths...)), nil
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "psdigest",
		Doc:  "anti-entropy digest: every path and its version",
		Args: []cmdlang.ArgSpec{
			{Name: "partition", Kind: cmdlang.KindInt, Doc: "restrict the digest to one partition"},
			{Name: "partitions", Kind: cmdlang.KindInt, Doc: "partition count the filter hashes against"},
		},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		// The filter hashes with the caller-supplied count, so a
		// transfer source serves partition-scoped digests without
		// needing a placement map of its own.
		filtered := c.Has("partition")
		part := int(c.Int("partition", -1))
		parts := int(c.Int("partitions", 0))
		if filtered && (part < 0 || parts <= 0 || part >= parts) {
			return cmdlang.Fail(cmdlang.CodeBadArgument, fmt.Sprintf("partition %d of %d", part, parts)), nil
		}
		digest := n.Digest()
		paths := make([]string, 0, len(digest))
		for p := range digest {
			if filtered && placement.PartitionOf(p, parts) != part {
				continue
			}
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
		// No placement check: this is the anti-entropy and transfer pull
		// path, which must read retained copies regardless of ownership.
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

	n.Handle(cmdlang.CommandSpec{
		Name: "psmap",
		Doc:  "install a placement map (epoch must not regress)",
		Args: []cmdlang.ArgSpec{{Name: "map", Kind: cmdlang.KindString, Required: true}},
	}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		m, err := placement.DecodeString(c.Str("map", ""))
		if err != nil {
			return cmdlang.Fail(cmdlang.CodeBadArgument, err.Error()), nil
		}
		n.mu.Lock()
		if n.place != nil && m.Epoch < n.place.Epoch {
			cur := n.place.Epoch
			n.mu.Unlock()
			return cmdlang.Fail(cmdlang.CodeConflict,
				fmt.Sprintf("map epoch %d older than installed %d", m.Epoch, cur)).
				SetInt("epoch", int64(cur)), nil
		}
		// Equal epochs are accepted idempotently: a restarted
		// coordinator re-pushes the map it finds published.
		n.place = m
		n.placeIdx = m.GroupIndex(n.group)
		n.mu.Unlock()
		n.mPlaceInstalls.Inc()
		n.mPlaceEpoch.Set(int64(m.Epoch))
		return cmdlang.OK().SetInt("epoch", int64(m.Epoch)), nil
	})

	n.Handle(cmdlang.CommandSpec{
		Name: "pspull",
		Doc:  "pull one partition from its current owners (rebalance transfer)",
		Args: []cmdlang.ArgSpec{{Name: "partition", Kind: cmdlang.KindInt, Required: true}},
	}, func(ctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		part := int(c.Int("partition", -1))
		n.mu.Lock()
		ps, gi := n.place, n.placeIdx
		peers := append([]string(nil), n.peers...)
		n.mu.Unlock()
		if ps == nil {
			return cmdlang.Fail(cmdlang.CodeUnavailable, "no placement map installed"), nil
		}
		if part < 0 || part >= ps.Partitions {
			return cmdlang.Fail(cmdlang.CodeBadArgument, fmt.Sprintf("partition %d of %d", part, ps.Partitions)), nil
		}
		var sources []string
		switch mv := ps.MoveFor(part); {
		case mv != nil && gi >= 0 && mv.To == gi:
			sources = ps.Groups[mv.From].Replicas
		case gi >= 0 && ps.Assignment[part] == gi:
			// Already the owner (a resumed rebalance re-pulling after
			// cutover): converge against same-group peers instead.
			sources = peers
		default:
			return cmdlang.Fail(cmdlang.CodeConflict,
				fmt.Sprintf("group %q is not the destination of partition %d", n.group, part)), nil
		}
		select {
		case n.transferSem <- struct{}{}:
		default:
			// Transfers fan out pulls and fsync batches; past the bound
			// the coordinator retries rather than piling more on.
			return cmdlang.Busy(degradedRetryAfter), nil
		}
		tctx := ctx.TraceContext()
		work := func() *cmdlang.CmdLine {
			defer func() { <-n.transferSem }()
			pulled, srcOK := 0, 0
			var lastErr error
			for _, src := range sources {
				got, err := n.syncFrom(tctx, src, part, ps.Partitions)
				pulled += got
				if err != nil {
					lastErr = err
					continue
				}
				srcOK++
			}
			n.mPlacePulled.Add(int64(pulled))
			if srcOK == 0 && len(sources) > 0 {
				return cmdlang.Fail(cmdlang.CodeUnavailable,
					fmt.Sprintf("pull partition %d: no source reachable: %v", part, lastErr))
			}
			return cmdlang.OK().
				SetInt("pulled", int64(pulled)).
				SetInt("sources_ok", int64(srcOK)).
				SetInt("sources", int64(len(sources)))
		}
		// Detach so the daemon's serial section is not held through a
		// bulk transfer; the semaphore above bounds the spawns.
		finish, ok := ctx.Detach()
		if !ok {
			return work(), nil
		}
		n.transferWG.Add(1)
		go func() {
			defer n.transferWG.Done()
			finish(work())
		}()
		return nil, nil
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
