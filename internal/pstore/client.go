package pstore

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

func encodeValue(b []byte) string { return hex.EncodeToString(b) }

// decodeValue decodes a replica's hex-encoded value. Corruption must
// surface as an error: silently returning nil would let a bad replica
// masquerade as holding a missing/empty value and win (or skew) a
// quorum read.
func decodeValue(s string) ([]byte, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("pstore: corrupt replica value %q: %w", truncateForErr(s), err)
	}
	return b, nil
}

func truncateForErr(s string) string {
	if len(s) > 32 {
		return s[:32] + "…"
	}
	return s
}

// replyVersion extracts a reply's version argument. A negative
// version is a corrupt-replica error, same treatment as bad hex: the
// naive uint64 conversion would turn version=-1 into ~1.8e19, which
// permanently wins every quorum read and poisons the next write's
// version probe.
func replyVersion(reply *cmdlang.CmdLine, addr string) (uint64, error) {
	v := reply.Int("version", 0)
	if v < 0 {
		return 0, fmt.Errorf("pstore: replica %s: corrupt negative version %d", addr, v)
	}
	return uint64(v), nil
}

// WrongGroupError reports that an operation could not reach quorum
// because replicas answered wrong_group redirects: the placement map
// the request was routed (and epoch-stamped) with is stale. The fix
// is at the routing layer — refresh the map and re-route — which the
// sharded client does transparently.
type WrongGroupError struct {
	Op string
}

func (e *WrongGroupError) Error() string {
	return "pstore: " + e.Op + " redirected: placement map is stale"
}

// IsWrongGroup reports whether err is (or wraps) a placement redirect.
func IsWrongGroup(err error) bool {
	var wg *WrongGroupError
	return errors.As(err, &wg)
}

// Client reads and writes the replicated store through majority
// quorums. It is safe for concurrent use.
type Client struct {
	pool     *daemon.Pool
	replicas []string
	// epoch, when non-zero, is stamped onto every data-plane command
	// so nodes can reject requests routed with a placement map older
	// than the addressed partition's last routing change.
	epoch uint64

	// repairSem bounds concurrent background read repairs; bg tracks
	// straggler drains and repairs so Close can wait for them.
	repairSem chan struct{}
	bg        sync.WaitGroup

	// clock is the client's hybrid logical clock, which stamps writes.
	// leases and ctl are the bounded-staleness read machinery: the
	// per-path freshness-lease table holding the proof bounded reads
	// rely on, and the AIMD valve deciding how much lease-proven
	// traffic may leave the quorum path. A sharded deployment shares
	// one set across its group clients.
	clock  *hlc.Clock
	ctl    *staleness.Controller
	leases *staleness.Leases

	mReadLatency      *telemetry.Histogram
	mReadFullLatency  *telemetry.Histogram
	mWriteLatency     *telemetry.Histogram
	mWriteFullLatency *telemetry.Histogram
	mReadStragglers   *telemetry.Counter
	mWriteStragglers  *telemetry.Counter
	mReadRepairs      *telemetry.Counter
	mRepairErrs       *telemetry.Counter
	mRepairsDropped   *telemetry.Counter
	mBoundedHits      *telemetry.Counter
	mBoundedFallbacks *telemetry.Counter
	mBoundedLatency   *telemetry.Histogram
	mStaleViolations  *telemetry.Counter
	mStaleShare       *telemetry.Gauge
}

// NewClient builds a client over the given replica addresses,
// dialing through pool. Quorum latency histograms, straggler
// counters, and the read-repair instruments land in the pool's
// telemetry registry.
func NewClient(pool *daemon.Pool, replicas []string) *Client {
	tel := pool.Telemetry()
	bound := 2 * len(replicas)
	if bound < 4 {
		bound = 4
	}
	return &Client{
		pool:              pool,
		replicas:          append([]string(nil), replicas...),
		repairSem:         make(chan struct{}, bound),
		clock:             hlc.New(nil, 0, tel),
		ctl:               staleness.NewController(nil),
		leases:            staleness.NewLeases(0, nil),
		mBoundedHits:      tel.Counter(MetricBoundedHits),
		mBoundedFallbacks: tel.Counter(MetricBoundedFallbacks),
		mBoundedLatency:   tel.Histogram(MetricBoundedLatency),
		mStaleViolations:  tel.Counter(staleness.MetricViolations),
		mStaleShare:       tel.Gauge(staleness.MetricShare),
		mReadLatency:      tel.Histogram(MetricReadLatency),
		mReadFullLatency:  tel.Histogram(MetricReadLatencyFull),
		mWriteLatency:     tel.Histogram(MetricWriteLatency),
		mWriteFullLatency: tel.Histogram(MetricWriteLatencyFull),
		mReadStragglers:   tel.Counter(MetricReadStragglers),
		mWriteStragglers:  tel.Counter(MetricWriteStragglers),
		mReadRepairs:      tel.Counter(MetricReadRepairs),
		mRepairErrs:       tel.Counter(MetricRepairErrors),
		mRepairsDropped:   tel.Counter(MetricRepairsDropped),
	}
}

// NewGroupClient is NewClient for one replica group of a sharded
// deployment: every command it issues is stamped with the placement
// epoch of the map it was routed by.
func NewGroupClient(pool *daemon.Pool, replicas []string, epoch uint64) *Client {
	c := NewClient(pool, replicas)
	c.epoch = epoch
	return c
}

// stamp adds the client's placement epoch to a data-plane command;
// an unsharded client (epoch 0) leaves commands untouched, which
// nodes admit regardless of placement.
func (c *Client) stamp(cmd *cmdlang.CmdLine) *cmdlang.CmdLine {
	if c.epoch > 0 {
		cmd.SetInt("epoch", int64(c.epoch))
	}
	return cmd
}

// anyRedirect reports whether any consumed reply was a wrong_group
// placement redirect.
func anyRedirect(prefix []replicaReply) bool {
	for _, r := range prefix {
		if r.err != nil && cmdlang.IsRemoteCode(r.err, cmdlang.CodeWrongGroup) {
			return true
		}
	}
	return false
}

// Close waits for the client's background work — straggler drains and
// read repairs — to finish. Close the client before closing the pool
// it dials through, so in-flight repairs don't race the pool's
// teardown. Close does not invalidate the client; it only drains.
func (c *Client) Close() { c.bg.Wait() }

// Quorum returns the majority size for the configured replica set.
func (c *Client) Quorum() int { return len(c.replicas)/2 + 1 }

// Replicas returns the configured replica addresses.
func (c *Client) Replicas() []string { return append([]string(nil), c.replicas...) }

// replicaReply is one replica's contribution to a streaming fan-out.
type replicaReply struct {
	idx   int
	item  Item
	paths []string // pslist fan-outs only
	ok    bool     // well-formed response carrying data (vs not-found)
	err   error
}

// fanout is one in-flight streaming fan-out: replica results arrive
// on the buffered channel in completion order, and every replica call
// runs under its own child context so stragglers can be cancelled the
// moment the quorum outcome is decided.
type fanout struct {
	n       int
	start   time.Time
	results chan replicaReply
	cancels []context.CancelFunc
}

// streamFanout launches fn against every replica. The results channel
// is buffered for the full replica set, so replica goroutines never
// block and never leak, whether or not anyone consumes the tail.
func (c *Client) streamFanout(ctx context.Context, fn func(ctx context.Context, addr string) replicaReply) *fanout {
	f := &fanout{
		n:       len(c.replicas),
		start:   time.Now(),
		results: make(chan replicaReply, len(c.replicas)),
		cancels: make([]context.CancelFunc, len(c.replicas)),
	}
	for i, addr := range c.replicas {
		cctx, cancel := context.WithCancel(ctx)
		f.cancels[i] = cancel
		go func(i int, addr string, cctx context.Context) {
			r := fn(cctx, addr)
			r.idx = i
			f.results <- r
		}(i, addr, cctx)
	}
	return f
}

func (f *fanout) cancelAll() {
	for _, cancel := range f.cancels {
		cancel()
	}
}

// awaitQuorum consumes fan-out results until the outcome is decided:
// `need` well-formed responses make a success, and failure is
// declared as soon as so many replicas have failed that `need`
// responses can no longer arrive — not after the last straggler rides
// out its timeout. It returns every result consumed up to the
// decision; the caller owns finishing the fan-out either way.
func (f *fanout) awaitQuorum(need int, op string) ([]replicaReply, error) {
	prefix := make([]replicaReply, 0, f.n)
	responded, failed := 0, 0
	for r := range f.results {
		prefix = append(prefix, r)
		if r.err != nil {
			failed++
			if failed > f.n-need {
				return prefix, fmt.Errorf("pstore: %s failed: %d/%d replicas reachable", op, responded, f.n)
			}
			continue
		}
		responded++
		if responded >= need {
			return prefix, nil
		}
	}
	return prefix, fmt.Errorf("pstore: %s failed: %d/%d replicas reachable", op, responded, f.n)
}

// finish cancels the fan-out's stragglers and detaches a drain
// goroutine that consumes their late results, so they still feed
// telemetry, the pool's per-address bookkeeping, and read repair.
// winner, when non-nil, is the decided read's winning item: late
// responders observed behind it are repaired exactly like the ones
// that made the quorum prefix. The drain is tracked by the client's
// background WaitGroup, so Close can wait for it.
func (c *Client) finish(f *fanout, consumed int, stragglers *telemetry.Counter, full *telemetry.Histogram, winner *Item, repairCtx context.Context) {
	remaining := f.n - consumed
	f.cancelAll() // idempotent; also releases the child contexts of completed calls
	if remaining == 0 {
		full.Observe(time.Since(f.start))
		return
	}
	stragglers.Add(int64(remaining))
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		for i := 0; i < remaining; i++ {
			r := <-f.results
			if winner != nil && r.err == nil && (!r.ok || r.item.Version < winner.Version) {
				c.repairAsync(repairCtx, c.replicas[r.idx], *winner)
			}
		}
		full.Observe(time.Since(f.start))
	}()
}

// repairAsync pushes the winning item to a lagging replica in the
// background. Concurrent repairs are bounded by the repair semaphore:
// over the bound the repair is dropped and counted rather than piling
// goroutines up behind a sick replica — anti-entropy remains the
// backstop. Repairs are tracked by the client's background WaitGroup
// so Close doesn't race the pool teardown.
func (c *Client) repairAsync(ctx context.Context, addr string, winner Item) {
	select {
	case c.repairSem <- struct{}{}:
	default:
		c.mRepairsDropped.Inc()
		return
	}
	c.mReadRepairs.Inc()
	repair := cmdlang.New("psput").
		SetString("path", winner.Path).
		SetString("value", encodeValue(winner.Value)).
		SetInt("version", int64(winner.Version))
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		defer func() { <-c.repairSem }()
		// Best effort: failed repairs are counted so a persistently
		// sick replica shows up in the metrics.
		if _, err := c.pool.CallContext(ctx, addr, repair); err != nil {
			c.mRepairErrs.Inc()
		}
	}()
}

// Get performs a quorum read: it queries all replicas, requires a
// majority of responses, and returns the highest-versioned live
// value. It returns ok=false (with nil error) when a majority agrees
// the path holds nothing. Replicas observed to lag behind the winning
// version are read-repaired in the background, tightening the window
// anti-entropy would otherwise close later.
func (c *Client) Get(path string) (value []byte, version uint64, ok bool, err error) {
	return c.GetContext(context.Background(), path)
}

// GetContext is Get bounded by ctx; a span context carried by ctx is
// propagated to every replica call, so the whole quorum read appears
// under one trace.
//
// The read is decided as soon as a majority has answered: because a
// write commits only with majority acks, any majority of read
// responses intersects the write majority of every committed write,
// so the highest version among the first quorum of responses includes
// the latest committed value. Stragglers are cancelled and drained in
// the background — one blackholed replica no longer sets the latency
// of every read.
func (c *Client) GetContext(ctx context.Context, path string) (value []byte, version uint64, ok bool, err error) {
	start := time.Now()
	defer func() { c.mReadLatency.Observe(time.Since(start)) }()
	f := c.streamFanout(ctx, func(cctx context.Context, addr string) replicaReply {
		reply, callErr := c.pool.CallContext(cctx, addr, c.stamp(cmdlang.New("psget").SetString("path", path)))
		if callErr != nil {
			if cmdlang.IsRemoteCode(callErr, cmdlang.CodeNotFound) {
				return replicaReply{}
			}
			return replicaReply{err: callErr}
		}
		val, decErr := decodeValue(reply.Str("value", ""))
		if decErr != nil {
			// A corrupt replica is a failed replica: it must not count
			// toward the quorum, and its version must not win.
			return replicaReply{err: fmt.Errorf("pstore: replica %s: %w", addr, decErr)}
		}
		ver, verErr := replyVersion(reply, addr)
		if verErr != nil {
			return replicaReply{err: verErr}
		}
		return replicaReply{ok: true, item: Item{Path: path, Value: val, Version: ver}}
	})
	// Repairs keep the caller's span context but not its cancellation —
	// they should finish (and be traced) even when the caller returns
	// immediately.
	repairCtx := telemetry.WithSpanContext(context.Background(), telemetry.FromContext(ctx))
	prefix, qErr := f.awaitQuorum(c.Quorum(), "quorum read")
	if qErr != nil {
		c.finish(f, len(prefix), c.mReadStragglers, c.mReadFullLatency, nil, repairCtx)
		if anyRedirect(prefix) {
			return nil, 0, false, &WrongGroupError{Op: "quorum read"}
		}
		return nil, 0, false, qErr
	}
	var best Item
	found := false
	for _, r := range prefix {
		if r.err == nil && r.ok && (!found || newer(r.item, best)) {
			best = r.item
			found = true
		}
	}
	if !found {
		c.finish(f, len(prefix), c.mReadStragglers, c.mReadFullLatency, nil, repairCtx)
		return nil, 0, false, nil
	}
	// Read repair: push the winning item to replicas that answered
	// with an older (or no) version — here for quorum members, in the
	// detached drain for stragglers that answer late.
	c.finish(f, len(prefix), c.mReadStragglers, c.mReadFullLatency, &best, repairCtx)
	holders := make([]string, 0, len(prefix))
	for _, r := range prefix {
		if r.err == nil && (!r.ok || r.item.Version < best.Version) {
			c.repairAsync(repairCtx, c.replicas[r.idx], best)
		} else if r.err == nil && r.ok && r.item.Version == best.Version {
			holders = append(holders, c.replicas[r.idx])
		}
	}
	// Grant a freshness lease: any write the winning-version responders
	// could be missing was committed after this read's fan-out launch
	// (quorum intersection — see staleness.Leases), so bounded reads
	// may serve them for the next Δ.
	c.leases.Grant(path, best.Version, holders, start)
	return best.Value, best.Version, true, nil
}

// GetAny reads from the first reachable replica without waiting for a
// quorum — the paper's bottleneck-removal read path, which may return
// slightly stale data during synchronization windows.
func (c *Client) GetAny(path string) (value []byte, version uint64, ok bool, err error) {
	return c.anyGet(context.Background(), path)
}

// currentVersion determines the highest version any replica holds at
// path, including tombstones (a quorum read hides deletions, but a
// new write must still supersede the tombstone's version). Like
// GetContext it decides at a majority of responses: the probe cannot
// miss a committed version, because commitment itself requires a
// majority.
func (c *Client) currentVersion(ctx context.Context, path string) (uint64, error) {
	f := c.streamFanout(ctx, func(cctx context.Context, addr string) replicaReply {
		reply, callErr := c.pool.CallContext(cctx, addr, c.stamp(cmdlang.New("psfetch").SetString("path", path)))
		if callErr != nil {
			if cmdlang.IsRemoteCode(callErr, cmdlang.CodeNotFound) {
				return replicaReply{}
			}
			return replicaReply{err: callErr}
		}
		ver, verErr := replyVersion(reply, addr)
		if verErr != nil {
			return replicaReply{err: verErr}
		}
		return replicaReply{ok: true, item: Item{Version: ver}}
	})
	prefix, qErr := f.awaitQuorum(c.Quorum(), "quorum version probe")
	c.finish(f, len(prefix), c.mWriteStragglers, c.mWriteFullLatency, nil, ctx)
	if qErr != nil {
		if anyRedirect(prefix) {
			return 0, &WrongGroupError{Op: "version probe"}
		}
		return 0, qErr
	}
	var max uint64
	for _, r := range prefix {
		if r.err == nil && r.ok && r.item.Version > max {
			max = r.item.Version
		}
	}
	return max, nil
}

// Put writes value at path: it determines the next version from a
// quorum probe, then writes to all replicas, succeeding once a
// majority has accepted. Anti-entropy carries the write to replicas
// that missed it.
func (c *Client) Put(path string, value []byte) (uint64, error) {
	return c.PutContext(context.Background(), path, value)
}

// PutContext is Put bounded by ctx, with span propagation to every
// replica (the version probe and the write fan-out alike). It returns
// as soon as a majority has acked; replicas still in flight are
// cancelled and left to read repair and anti-entropy.
func (c *Client) PutContext(ctx context.Context, path string, value []byte) (uint64, error) {
	if err := ValidatePath(path); err != nil {
		return 0, err
	}
	start := time.Now()
	defer func() { c.mWriteLatency.Observe(time.Since(start)) }()
	cur, err := c.currentVersion(ctx, path)
	if err != nil {
		return 0, err
	}
	next := cur + 1
	acked, err := c.quorumWrite(ctx, "quorum write", cmdlang.New("psput").
		SetString("path", path).
		SetString("value", encodeValue(value)).
		SetInt("version", int64(next)))
	if err != nil {
		return 0, err
	}
	// Grant a freshness lease to the ackers, dated at the version
	// probe's launch: the probe's quorum proves every write committed
	// before `start` has version ≤ cur, so the acked `next` supersedes
	// them all and a rival committing between probe and ack is younger
	// than `start` — the conservative grant time bounded reads need.
	c.leases.Grant(path, next, acked, start)
	return next, nil
}

// PutVersionContext writes value at an explicit version through the
// write quorum, skipping the version probe. It is the dual-apply arm
// of a sharded put: the router probes the source group once, then
// applies the same version to source and destination so the moving
// partition converges on one winner.
func (c *Client) PutVersionContext(ctx context.Context, path string, value []byte, version uint64) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	start := time.Now()
	defer func() { c.mWriteLatency.Observe(time.Since(start)) }()
	// No lease for the ackers: the version was probed by the router
	// against another group at a time this client cannot see, so there
	// is no sound grant instant. Dual-apply traffic just leaves bounded
	// reads to re-validate through a quorum.
	_, err := c.quorumWrite(ctx, "quorum write", cmdlang.New("psput").
		SetString("path", path).
		SetString("value", encodeValue(value)).
		SetInt("version", int64(version)))
	return err
}

// DeleteVersionContext writes a tombstone at an explicit version, the
// dual-apply arm of a sharded delete (see PutVersionContext).
func (c *Client) DeleteVersionContext(ctx context.Context, path string, version uint64) error {
	start := time.Now()
	defer func() { c.mWriteLatency.Observe(time.Since(start)) }()
	c.leases.Drop(path)
	_, err := c.quorumWrite(ctx, "quorum delete", cmdlang.New("psdel").
		SetString("path", path).
		SetInt("version", int64(version)))
	return err
}

// Delete writes a tombstone at path through a quorum.
func (c *Client) Delete(path string) error {
	return c.DeleteContext(context.Background(), path)
}

// DeleteContext is Delete bounded by ctx with span propagation.
func (c *Client) DeleteContext(ctx context.Context, path string) error {
	start := time.Now()
	defer func() { c.mWriteLatency.Observe(time.Since(start)) }()
	cur, err := c.currentVersion(ctx, path)
	if err != nil {
		return err
	}
	// A tombstone invalidates any lease immediately — even a write that
	// ends up under quorum may have landed on a holder.
	c.leases.Drop(path)
	_, err = c.quorumWrite(ctx, "quorum delete", cmdlang.New("psdel").
		SetString("path", path).
		SetInt("version", int64(cur+1)))
	return err
}

// quorumWrite is the tail of every write: it streams cmd to every
// replica and returns the addresses that acked as soon as the write
// quorum is reached — or provably unreachable — cancelling and
// draining the stragglers in the background. A cancelled straggler
// that already received the frame still applies the write; one that
// didn't is healed by repair or anti-entropy. Under quorum the write
// failed: as a WrongGroupError when any consumed failure was a
// wrong_group placement redirect (a stale routing decision rather than
// unavailability), else with the ack count. op names the operation in
// both.
func (c *Client) quorumWrite(ctx context.Context, op string, cmd *cmdlang.CmdLine) (acked []string, err error) {
	c.stamp(cmd)
	// The HLC timestamp rides the wire frame header to every replica,
	// so all of them store the same client-assigned stamp. Every
	// replica's call shares cmd: the wire client copies a command
	// before adding its seq.
	ctx = hlc.WithTimestamp(ctx, c.clock.Now())
	f := c.streamFanout(ctx, func(cctx context.Context, addr string) replicaReply {
		if _, err := c.pool.CallContext(cctx, addr, cmd); err != nil {
			return replicaReply{err: err}
		}
		return replicaReply{ok: true}
	})
	prefix, _ := f.awaitQuorum(c.Quorum(), op)
	c.finish(f, len(prefix), c.mWriteStragglers, c.mWriteFullLatency, nil, ctx)
	for _, r := range prefix {
		if r.err == nil {
			acked = append(acked, c.replicas[r.idx])
		}
	}
	if len(acked) < c.Quorum() {
		if anyRedirect(prefix) {
			return nil, &WrongGroupError{Op: op}
		}
		return nil, fmt.Errorf("pstore: %s failed: %d/%d acks", op, len(acked), len(c.replicas))
	}
	return acked, nil
}

// List unions the live paths under prefix across all reachable
// replicas (a recovering replica may not hold everything yet).
func (c *Client) List(prefix string) ([]string, error) {
	return c.ListContext(context.Background(), prefix)
}

// ListContext is List bounded by ctx. Replicas are probed through the
// streaming fan-out — concurrently, not one by one — and only
// well-formed replies count as reachable: a replica answering
// garbage is a failed replica, not an empty union member.
func (c *Client) ListContext(ctx context.Context, prefix string) ([]string, error) {
	f := c.streamFanout(ctx, func(cctx context.Context, addr string) replicaReply {
		reply, err := c.pool.CallContext(cctx, addr, cmdlang.New("pslist").SetString("prefix", prefix))
		if err != nil {
			return replicaReply{err: err}
		}
		paths := reply.Strings("paths")
		if count := reply.Int("count", -1); count < 0 || count != int64(len(paths)) {
			return replicaReply{err: fmt.Errorf("pstore: replica %s: malformed list reply (count=%d, %d paths)", addr, count, len(paths))}
		}
		return replicaReply{ok: true, paths: paths}
	})
	// A union wants every answer, so there is no early decision here —
	// but the probes run concurrently, so the slowest replica bounds
	// the latency once, not N times.
	defer f.cancelAll()
	set := map[string]bool{}
	reachable := 0
	for i := 0; i < f.n; i++ {
		r := <-f.results
		if r.err != nil {
			continue
		}
		reachable++
		for _, p := range r.paths {
			set[p] = true
		}
	}
	if reachable == 0 {
		return nil, fmt.Errorf("pstore: no replica reachable for list")
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// Cluster is a convenience for building and running an N-node store
// in one process (tests, examples, benches).
type Cluster struct {
	Nodes []*Node
}

// StartCluster starts n nodes (n=3 reproduces Fig 17), wires them as
// peers, and returns the cluster. dir enables per-node WALs when
// non-empty; syncInterval drives anti-entropy.
func StartCluster(n int, dir string, syncInterval int64) (*Cluster, error) {
	return StartClusterT(n, dir, syncInterval, nil)
}

// StartClusterT is StartCluster with a transport factory so the store
// can run inside a TLS environment; transportFor may be nil for
// plaintext.
func StartClusterT(n int, dir string, syncInterval int64, transportFor func(name string) (*wire.Transport, error)) (*Cluster, error) {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		cfg := Config{
			Daemon: daemon.Config{Name: fmt.Sprintf("pstore%d", i+1)},
		}
		if transportFor != nil {
			t, err := transportFor(cfg.Daemon.Name)
			if err != nil {
				c.StopAll()
				return nil, err
			}
			cfg.Daemon.Transport = t
		}
		if dir != "" {
			cfg.Dir = dir
		}
		node, err := NewNode(cfg)
		if err != nil {
			c.StopAll()
			return nil, err
		}
		if err := node.Start(); err != nil {
			c.StopAll()
			return nil, err
		}
		c.Nodes = append(c.Nodes, node)
	}
	addrs := c.Addrs()
	for i, node := range c.Nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node.SetPeers(peers)
	}
	return c, nil
}

// Addrs returns every node's command address.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Addr()
	}
	return out
}

// StopAll stops every node.
func (c *Cluster) StopAll() {
	for _, n := range c.Nodes {
		if n != nil {
			n.Stop()
		}
	}
}

// SyncRound runs one full anti-entropy round on every node.
func (c *Cluster) SyncRound() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.SyncAll()
	}
	return total
}
