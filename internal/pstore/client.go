package pstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// replyValue extracts a replica reply's value, which a replica sends
// as a byte string; the slice shares the reply's frame. Anything else
// is corruption and must surface as an error: taking a string's text,
// or nothing, would let a bad replica masquerade as holding that value
// and win (or skew) a quorum read.
func replyValue(reply *cmdlang.CmdLine, addr string) ([]byte, error) {
	v, _ := reply.Get("value")
	if v.Kind() == cmdlang.KindBytes {
		b, _ := v.AsBytes()
		return b, nil
	}
	s := v.AsString()
	if len(s) > 32 {
		s = s[:32] + "…"
	}
	return nil, fmt.Errorf("pstore: replica %s: corrupt value %q: not a byte string", addr, s)
}

// replyVersion extracts a reply's version argument. A negative
// version is a corrupt-replica error, same treatment as a corrupt
// value: the naive uint64 conversion would turn version=-1 into ~1.8e19, which
// permanently wins every quorum read and, reported as a conflict,
// drags the next write's version up with it.
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

	// next is the rotation a read's first leg is taken from;
	// passedOver holds, per replica, the instant (UnixNano) before which
	// reads take it last (see passOver).
	next       atomic.Uint32
	passedOver []atomic.Int64

	// clock is the client's hybrid logical clock, whose stamp is a
	// write's version (stampedWrite). leases is the per-path
	// freshness-lease table holding the proof bounded reads rely on. A
	// sharded deployment shares both across its group clients.
	clock  *hlc.Clock
	leases *staleness.Leases

	mReadLatency      *telemetry.Histogram
	mReadFullLatency  *telemetry.Histogram
	mWriteLatency     *telemetry.Histogram
	mWriteFullLatency *telemetry.Histogram
	mReadStragglers   *telemetry.Counter
	mReadHedges       *telemetry.Counter
	mReadPassovers    *telemetry.Counter
	mWriteStragglers  *telemetry.Counter
	mWriteConflicts   *telemetry.Counter
	mReadRepairs      *telemetry.Counter
	mRepairErrs       *telemetry.Counter
	mRepairsDropped   *telemetry.Counter
	mBoundedHits      *telemetry.Counter
	mBoundedFallbacks *telemetry.Counter
	mBoundedLatency   *telemetry.Histogram
	mStaleViolations  *telemetry.Counter
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
		passedOver:        make([]atomic.Int64, len(replicas)),
		clock:             hlc.New(nil, 0, tel),
		leases:            staleness.NewLeases(0, nil),
		mBoundedHits:      tel.Counter(MetricBoundedHits),
		mBoundedFallbacks: tel.Counter(MetricBoundedFallbacks),
		mBoundedLatency:   tel.Histogram(MetricBoundedLatency),
		mStaleViolations:  tel.Counter(staleness.MetricViolations),
		mReadLatency:      tel.Histogram(MetricReadLatency),
		mReadFullLatency:  tel.Histogram(MetricReadLatencyFull),
		mWriteLatency:     tel.Histogram(MetricWriteLatency),
		mWriteFullLatency: tel.Histogram(MetricWriteLatencyFull),
		mReadStragglers:   tel.Counter(MetricReadStragglers),
		mReadHedges:       tel.Counter(MetricReadHedges),
		mReadPassovers:    tel.Counter(MetricReadPassovers),
		mWriteStragglers:  tel.Counter(MetricWriteStragglers),
		mWriteConflicts:   tel.Counter(MetricWriteConflicts),
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

// replicaReply is one replica's contribution to a streaming fan-out.
type replicaReply struct {
	idx   int
	item  Item
	paths []string // pslist fan-outs only
	ok    bool     // well-formed response carrying data (vs not-found)
	err   error
}

// hedgeAfter is how long a quorum read waits on its first legs before
// it launches a spare — the hedged request of Dean and Barroso's "The
// Tail at Scale". It is about four times the p99 of a whole store
// operation on a loaded two-CPU host, so a healthy replica is rarely
// hedged around, while a stalled one costs a read this long instead of
// a call timeout.
const hedgeAfter = 2 * time.Millisecond

// fanout is one in-flight streaming fan-out. Its legs run in order, one
// per replica: a write or a list launches all of them at once, a quorum
// read a quorum's worth, an any-replica read one, and awaitQuorum
// launches the rest — the spares — only when a leg fails or the read is
// still undecided after hedgeAfter.
// Results arrive on the buffered channel in completion order, and every
// leg runs under its own child context so stragglers can be cancelled
// the moment the quorum outcome is decided.
type fanout struct {
	c       *Client
	ctx     context.Context
	fn      func(ctx context.Context, addr string) replicaReply
	start   time.Time
	order   []int                // replica indices, in launch order
	cancels []context.CancelFunc // one per launched leg
	results chan replicaReply
}

// streamFanout starts fn over every replica and launches the first
// `legs` legs. A fan-out that holds legs back is a read: it starts at
// the next replica of the client's rotation, so reads spread evenly over
// the replicas, and takes the ones currently passed over last. The
// results channel is buffered for the full replica set, so leg
// goroutines never block and never leak, whether or not anyone
// consumes the tail.
func (c *Client) streamFanout(ctx context.Context, legs int, fn func(ctx context.Context, addr string) replicaReply) *fanout {
	n := len(c.replicas)
	f := &fanout{
		c:       c,
		ctx:     ctx,
		fn:      fn,
		start:   time.Now(),
		order:   make([]int, n),
		cancels: make([]context.CancelFunc, 0, n),
		results: make(chan replicaReply, n),
	}
	first := 0
	if legs < n {
		first = int((c.next.Add(1) - 1) % uint32(n))
	}
	// Each mark is read once — legs elsewhere set and clear them
	// meanwhile — and the replicas passed over fill the order from the
	// back.
	now := f.start.UnixNano()
	front, back := 0, n
	for k := range n {
		i := (first + k) % n
		if c.passedOver[i].Load() > now {
			back--
			f.order[back] = i
		} else {
			f.order[front] = i
			front++
		}
	}
	for range min(legs, n) {
		f.launch()
	}
	return f
}

// launch starts the next leg in order.
func (f *fanout) launch() {
	i := f.order[len(f.cancels)]
	cctx, cancel := context.WithCancel(f.ctx)
	f.cancels = append(f.cancels, cancel)
	go func() {
		r := f.fn(cctx, f.c.replicas[i])
		r.idx = i
		f.c.noteLeg(i, r.err)
		f.results <- r
	}()
}

// spare launches up to k of the legs a read held back, each counted as
// a hedge.
func (f *fanout) spare(k int) {
	for ; k > 0 && len(f.cancels) < len(f.order); k-- {
		f.launch()
		f.c.mReadHedges.Inc()
	}
}

// cancelAll cancels every launched leg.
func (f *fanout) cancelAll() {
	for _, cancel := range f.cancels {
		cancel()
	}
}

// awaitQuorum consumes fan-out results until the outcome is decided:
// `need` well-formed responses make a success, and failure is
// declared as soon as so many replicas have failed that `need`
// responses can no longer arrive — not after the last straggler rides
// out its timeout. While legs are held back, a failed leg launches a
// spare at once, and a fan-out still undecided after hedgeAfter passes
// over the replicas it is waiting on and launches a spare for each
// answer still missing. It returns every result consumed up to the
// decision; the caller owns finishing the fan-out either way.
func (f *fanout) awaitQuorum(need int, op string) ([]replicaReply, error) {
	n := len(f.order)
	prefix := make([]replicaReply, 0, n)
	responded, failed := 0, 0
	var hedge <-chan time.Time
	if len(f.cancels) < n {
		t := time.NewTimer(hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	for {
		select {
		case r := <-f.results:
			prefix = append(prefix, r)
			if r.err == nil {
				if responded++; responded >= need {
					return prefix, nil
				}
				continue
			}
			if failed++; failed > n-need {
				return prefix, fmt.Errorf("pstore: %s failed: %d/%d replicas reachable", op, responded, n)
			}
			f.spare(1)
		case <-hedge:
			hedge = nil
			for _, i := range f.order[:len(f.cancels)] {
				if !slices.ContainsFunc(prefix, func(r replicaReply) bool { return r.idx == i }) {
					f.c.passOver(i)
				}
			}
			f.spare(need - responded)
		}
	}
}

// passOver has every read — quorum, bounded and any-replica — take
// replica i last for the pool's breaker cool-down: a read was hedged
// around it, a leg to it failed without an answer, or, as a lease
// holder, it answered below the version a quorum proved it held.
// Nothing more permanent is needed: the next leg to answer clears the
// mark (noteLeg), and writes still reach every replica, so a recovered
// replica is back with the next write.
func (c *Client) passOver(i int) {
	c.passedOver[i].Store(time.Now().Add(daemon.DefaultBreakerCooldown).UnixNano())
	c.mReadPassovers.Inc()
}

// noteLeg updates replica i's pass-over mark from a finished leg. Any
// answer clears it, a refusal included, since the replica is up; a leg
// that got none — a transport failure, a timeout, a corrupt reply —
// sets it. A leg the client cancelled says nothing about the replica.
func (c *Client) noteLeg(i int, err error) {
	switch {
	case err == nil || answered(err):
		// Most legs find no mark: reading first keeps them from all
		// writing one shared word.
		if c.passedOver[i].Load() != 0 {
			c.passedOver[i].Store(0)
		}
	case !errors.Is(err, context.Canceled):
		c.passOver(i)
	}
}

// answered reports whether a failed leg's error is the replica's own
// answer: a remote error or a refused write. It is a function of its
// own so that only failed legs pay for the errors.As targets.
func answered(err error) bool {
	var remote *cmdlang.RemoteError
	var refused *versionConflict
	return errors.As(err, &remote) || errors.As(err, &refused)
}

// finish cancels the fan-out's stragglers and detaches a drain
// goroutine that consumes their late results, so they still feed
// telemetry, the pool's per-address bookkeeping, and read repair.
// winner, when non-nil, is the decided read's winning item: late
// responders observed behind it are repaired exactly like the ones
// that made the quorum prefix. The drain is tracked by the client's
// background WaitGroup, so Close can wait for it.
func (c *Client) finish(f *fanout, consumed int, stragglers *telemetry.Counter, full *telemetry.Histogram, winner *Item, repairCtx context.Context) {
	remaining := len(f.cancels) - consumed
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
	repair := putCommand(winner.Path, winner.Value, winner.Version)
	if winner.Deleted {
		repair = delCommand(winner.Path, winner.Version)
	}
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

// Get performs a quorum read: it asks a majority of the replicas,
// more only when one fails or is slow, and returns the
// highest-versioned live value among a majority of responses. It returns ok=false (with nil error) when a majority agrees
// the path holds nothing. Replicas observed to lag behind the winning
// version are read-repaired in the background, tightening the window
// anti-entropy would otherwise close later. The value shares memory
// with the reply it arrived in, and a repair may still read it after
// Get returns, so it must not be modified; every read of this client
// returns values on these terms.
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
// the latest committed value. Any majority will do, so only a majority
// is asked: the read starts at the next replica of the client's
// rotation and takes the replicas currently passed over last. A leg
// that fails launches a spare at once; a read still undecided after
// hedgeAfter launches one too and passes over the replicas it was
// waiting on for the pool's breaker cool-down. Legs still outstanding
// at the decision are cancelled and drained in the background, so
// neither a blackholed nor a dead replica sets the latency of reads.
func (c *Client) GetContext(ctx context.Context, path string) (value []byte, version uint64, ok bool, err error) {
	start := time.Now()
	defer func() { c.mReadLatency.Observe(time.Since(start)) }()
	f := c.streamFanout(ctx, c.Quorum(), c.readLeg(path))
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
	// Read repair: push the winning item — a tombstone as much as a
	// value — to replicas that answered with an older (or no) version,
	// here for quorum members, in the detached drain for stragglers
	// that answer late.
	c.finish(f, len(prefix), c.mReadStragglers, c.mReadFullLatency, &best, repairCtx)
	holders := make([]string, 0, len(prefix))
	for _, r := range prefix {
		if r.err == nil && (!r.ok || r.item.Version < best.Version) {
			c.repairAsync(repairCtx, c.replicas[r.idx], best)
		} else if r.err == nil && r.ok && r.item.Version == best.Version {
			holders = append(holders, c.replicas[r.idx])
		}
	}
	if best.Deleted {
		return nil, 0, false, nil
	}
	// Grant a freshness lease: any write the winning-version responders
	// could be missing was committed after this read's fan-out launch
	// (quorum intersection — see staleness.Leases), so bounded reads
	// may serve them for the next Δ.
	c.leases.Grant(path, best.Version, holders, start)
	return best.Value, best.Version, true, nil
}

// readLeg is the fan-out leg of every multi-replica read: readReplica
// of path on the leg's replica.
func (c *Client) readLeg(path string) func(ctx context.Context, addr string) replicaReply {
	return func(ctx context.Context, addr string) replicaReply {
		it, held, err := c.readReplica(ctx, addr, path)
		return replicaReply{item: it, ok: held, err: err}
	}
}

// readReplica asks one replica for the item it holds at path, a
// tombstone included: a deletion must outvote an older value another
// replica still holds. held is false when the replica holds nothing. A
// corrupt reply is an error — a failed replica, which neither counts
// toward a quorum nor wins one.
func (c *Client) readReplica(ctx context.Context, addr, path string) (it Item, held bool, err error) {
	reply, err := c.pool.CallContext(ctx, addr, c.stamp(cmdlang.New("psget").SetString("path", path)))
	if err != nil {
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			return Item{}, false, nil
		}
		return Item{}, false, err
	}
	it = Item{Path: path, Deleted: reply.Bool("deleted", false)}
	if it.Value, err = replyValue(reply, addr); err != nil {
		return Item{}, false, err
	}
	if it.Version, err = replyVersion(reply, addr); err != nil {
		return Item{}, false, err
	}
	return it, true, nil
}

// maxWriteConflicts bounds the extra rounds of a stamped write. A retry
// is stamped above everything the refusals reported, so it loses again
// only to a rival stamped later still that reached the replicas first,
// and the highest stamp in flight always wins. Eight writers released
// together on one key, a thousand times, left 1 write in 80 refused at
// four retries, 1 in 5 000 at six and none at eight.
const maxWriteConflicts = 8

// conflictSpread is how far apart, in logical ticks of the clock,
// rivals' retries of one conflict are scattered.
const conflictSpread = 1 << 8

// versionConflict fails a stamped write round: replicas hold an equal
// or later version, held being the highest they reported.
type versionConflict struct{ held uint64 }

func (e *versionConflict) Error() string {
	return fmt.Sprintf("pstore: write refused: replicas hold version %d", e.held)
}

// stampedWrite runs a write whose version is the client's hybrid-clock
// stamp: build makes the command for a version, and the first version
// whose round succeeds is returned, with this group's replicas that
// applied it and the instant that round was launched. No replica is
// asked for the path's version first — a reading of the clock is above
// it unless a writer with a faster clock (or the same millisecond and
// a higher count) got there before; the round then fails with what the
// replicas hold, which is merged into the clock and retried above.
// Legacy counter versions are below every stamp.
func (c *Client) stampedWrite(ctx context.Context, op string, dest *Client, build func(version uint64) *cmdlang.CmdLine) (version uint64, appliers []string, launched time.Time, err error) {
	start := time.Now()
	defer func() { c.mWriteLatency.Observe(time.Since(start)) }()
	version = uint64(c.clock.Now())
	for attempt := 0; ; attempt++ {
		launched = time.Now()
		appliers, err = c.writeRound(ctx, op, dest, build(version))
		var conflict *versionConflict
		if !errors.As(err, &conflict) || attempt == maxWriteConflicts {
			return version, appliers, launched, err
		}
		c.mWriteConflicts.Inc()
		// Rivals refused by the same holders would all retry at held+1
		// and split the replicas between them again; a random step apart,
		// the highest applies everywhere. Update clamps a reading too far
		// ahead of the wall clock, so its result alone may not clear held.
		seen := conflict.held + rand.Uint64N(conflictSpread)
		version = max(uint64(c.clock.Update(hlc.Timestamp(seen))), seen+1)
	}
}

// writeRound is one round of a stamped write. While the path's
// partition is moving, dest is the destination group's client and the
// round must reach both groups' quorums at the one version: an acked
// write is then durable on a majority of BOTH, so killing either whole
// group cannot lose it, and a refusal from either re-stamps both.
func (c *Client) writeRound(ctx context.Context, op string, dest *Client, cmd *cmdlang.CmdLine) ([]string, error) {
	if dest == nil {
		return c.quorumWrite(ctx, op, cmd, true)
	}
	destErr := make(chan error, 1)
	destCmd := cmd.Clone() // each group's client adds its epoch to its own
	go func() {
		_, err := dest.quorumWrite(ctx, op, destCmd, true)
		destErr <- err
	}()
	appliers, err := c.quorumWrite(ctx, op, cmd, true)
	if derr := <-destErr; err == nil && derr != nil {
		err = fmt.Errorf("pstore: dual-apply destination: %w", derr)
	}
	return appliers, err
}

// Put writes value at path in one round to all replicas, versioned by
// the client's clock stamp, succeeding once a majority has applied it.
// Anti-entropy carries the write to replicas that missed it.
func (c *Client) Put(path string, value []byte) (uint64, error) {
	return c.PutContext(context.Background(), path, value)
}

// PutContext is Put bounded by ctx, with span propagation to every
// replica. It returns as soon as a majority has applied the write;
// replicas still in flight are cancelled and left to read repair and
// anti-entropy. Racing writers never share a version: one is refused
// by a majority and pays a second round (stampedWrite).
func (c *Client) PutContext(ctx context.Context, path string, value []byte) (uint64, error) {
	return c.put(ctx, path, value, nil)
}

// put is PutContext with the destination group of a moving partition
// (see writeRound), nil otherwise.
func (c *Client) put(ctx context.Context, path string, value []byte, dest *Client) (uint64, error) {
	if err := ValidatePath(path); err != nil {
		return 0, err
	}
	version, appliers, launched, err := c.stampedWrite(ctx, "quorum write", dest,
		func(v uint64) *cmdlang.CmdLine { return putCommand(path, value, v) })
	if err != nil {
		return 0, err
	}
	// The appliers' freshness lease is dated at the successful round's
	// launch: a write committed before then is held by a majority, which
	// shares a replica with the appliers, and that replica applied this
	// write only because its version is strictly higher — so whatever
	// the appliers could be missing was committed after `launched`.
	c.leases.Grant(path, version, appliers, launched)
	return version, nil
}

func delCommand(path string, version uint64) *cmdlang.CmdLine {
	return cmdlang.New("psdel").SetString("path", path).SetInt("version", int64(version))
}

func putCommand(path string, value []byte, version uint64) *cmdlang.CmdLine {
	return cmdlang.New("psput").
		SetString("path", path).
		SetBytes("value", value).
		SetInt("version", int64(version))
}

// PutVersionContext writes value at a version the caller owns. Any
// replica that answers counts toward the quorum, one already at or
// past the version included: the caller answers for its being new.
func (c *Client) PutVersionContext(ctx context.Context, path string, value []byte, version uint64) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	start := time.Now()
	defer func() { c.mWriteLatency.Observe(time.Since(start)) }()
	// No lease: nothing proves the version above earlier commits.
	_, err := c.quorumWrite(ctx, "quorum write", putCommand(path, value, version), false)
	return err
}

// Delete writes a tombstone at path through a quorum.
func (c *Client) Delete(path string) error {
	return c.DeleteContext(context.Background(), path)
}

// DeleteContext is Delete bounded by ctx with span propagation; the
// tombstone is versioned and acknowledged like a put.
func (c *Client) DeleteContext(ctx context.Context, path string) error {
	return c.del(ctx, path, nil)
}

// del is DeleteContext with the destination group of a moving
// partition, nil otherwise.
func (c *Client) del(ctx context.Context, path string, dest *Client) error {
	if err := ValidatePath(path); err != nil {
		return err
	}
	// A tombstone invalidates any lease immediately — even a write that
	// ends up under quorum may have landed on a holder.
	c.leases.Drop(path)
	_, _, _, err := c.stampedWrite(ctx, "quorum delete", dest,
		func(v uint64) *cmdlang.CmdLine { return delCommand(path, v) })
	return err
}

// quorumWrite is one round of every write: it streams cmd to every
// replica and returns the addresses that acked as soon as the write
// quorum is reached — or provably unreachable — cancelling and
// draining the stragglers in the background. A cancelled straggler
// that already received the frame still applies the write; one that
// didn't is healed by repair or anti-entropy. A stamped write (the
// command's version is the client's clock stamp) is acked only by a
// replica that applied the item, a re-delivery included; one that
// refused it for an equal or later version is a failed leg. Under
// quorum the round failed: as a WrongGroupError when any consumed
// failure was a wrong_group placement redirect (a stale routing
// decision rather than unavailability), as a versionConflict when any
// was a refusal, else with the ack count. op names the operation.
func (c *Client) quorumWrite(ctx context.Context, op string, cmd *cmdlang.CmdLine, stamped bool) (acked []string, err error) {
	c.stamp(cmd)
	// Every replica's call shares cmd: the wire client copies a command
	// before adding its seq.
	f := c.streamFanout(ctx, len(c.replicas), func(cctx context.Context, addr string) replicaReply {
		reply, err := c.pool.CallContext(cctx, addr, cmd)
		if err != nil {
			return replicaReply{err: err}
		}
		if stamped && !reply.Bool("applied", false) {
			held, verErr := replyVersion(reply, addr)
			if verErr != nil {
				return replicaReply{err: verErr}
			}
			return replicaReply{err: &versionConflict{held: held}}
		}
		return replicaReply{ok: true}
	})
	prefix, _ := f.awaitQuorum(c.Quorum(), op)
	c.finish(f, len(prefix), c.mWriteStragglers, c.mWriteFullLatency, nil, ctx)
	var conflict *versionConflict
	for _, r := range prefix {
		var refused *versionConflict
		switch {
		case r.err == nil:
			acked = append(acked, c.replicas[r.idx])
		case errors.As(r.err, &refused) && (conflict == nil || refused.held > conflict.held):
			conflict = refused
		}
	}
	switch {
	case len(acked) >= c.Quorum():
		return acked, nil
	case anyRedirect(prefix):
		return nil, &WrongGroupError{Op: op}
	case conflict != nil:
		return nil, conflict
	}
	return nil, fmt.Errorf("pstore: %s failed: %d/%d acks", op, len(acked), len(c.replicas))
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
	f := c.streamFanout(ctx, len(c.replicas), func(cctx context.Context, addr string) replicaReply {
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
	for range f.cancels {
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
