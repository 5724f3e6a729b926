package pstore

import (
	"context"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
)

// The store's reads are three methods, one per point on the
// consistency spectrum, and all three take replicas in one order: the
// client's rotation — or, for a bounded read, the lease's holders —
// with the replicas currently passed over last (see passOver):
//
//   - GetContext: ask a majority of the replicas — a spare more only
//     when one fails or is slow — and return the highest version
//     among a majority of answers. Linearizable with respect to
//     committed quorum writes.
//   - GetBoundedContext(Δ): serve from a single replica when a
//     freshness lease — granted by a quorum round this client ran
//     within the last Δ — proves the replica can be missing at most Δ
//     of history; fall back to a quorum read whenever no proof exists.
//     The bound is measured on this process's own clock, so it holds
//     under arbitrary replica clock skew. The cheap path for
//     directory resolves and sensor/room state that tolerate bounded
//     lag.
//   - GetAny: one replica's answer, best effort, no bound. May return
//     stale data during synchronization windows.

// Leases returns the client's freshness-lease table — the proof
// bounded reads rely on; exposed for inspection (stats, tests).
func (c *Client) Leases() *staleness.Leases { return c.leases }

// GetBoundedContext is the bounded(Δ) read path. The staleness proof is a
// freshness lease (staleness.Leases): a quorum round this client ran
// — a quorum read, or its own quorum write — that started at time T
// and established version v of the path records which replicas
// answered holding v. By quorum intersection, a write those holders
// could be missing was committed after T, so serving a holder's copy
// before T+Δ serves data at most Δ stale. Both T and "now" are
// readings of this process's own clock: the bound holds under
// arbitrary replica clock skew, for any Δ.
//
// The lease alone decides eligibility: with no live lease for the
// path, the read goes to the quorum path (conservative, never wrong).
// Otherwise it asks one holder, the first in the lease's order that is
// not passed over, and its leg marks or clears that replica like any
// quorum leg.
//
// A violation is a version regression: a lease holder answering
// below the quorum-validated version means the replica lost state
// (or the lease lied). The reply is discarded — counted, never
// served — the lease is dropped, the replica is passed over, and the
// read re-runs as a quorum. Misses and transport errors
// take the quorum fallback too, and that quorum round's new lease
// lists only replicas that answered it: the bound is only ever claimed
// when it is proven.
func (c *Client) GetBoundedContext(ctx context.Context, path string, bound time.Duration) (value []byte, version uint64, ok bool, err error) {
	start := time.Now()
	fallback := func(cause *telemetry.Counter) ([]byte, uint64, bool, error) {
		cause.Inc()
		c.mBoundedFallbacks.Inc()
		return c.GetContext(ctx, path)
	}
	leaseVer, grantedAt, holders, live := c.leases.Holders(path, bound)
	if !live {
		if grantedAt.IsZero() {
			return fallback(c.fallbacks.noLease)
		}
		return fallback(c.fallbacks.aged)
	}
	i := c.firstServed(holders, start.UnixNano())
	it, held, callErr := c.readReplica(ctx, c.replicas[i], path)
	c.noteLeg(i, callErr)
	if callErr != nil {
		return fallback(c.fallbacks.legFailed)
	}
	if !held || it.Deleted {
		// A proven holder with no live value: either the path was
		// deleted or the replica lost state. Both retire the lease and
		// let the quorum decide.
		c.leases.Drop(path)
		return fallback(c.fallbacks.noValue)
	}
	if it.Version < leaseVer {
		// Version regression below the quorum-validated lease: the
		// replica no longer holds what a quorum proved it held. Discard
		// the reply — it is never served.
		c.passOver(i)
		c.leases.Drop(path)
		return fallback(c.mStaleViolations)
	}
	now := time.Now()
	if now.Sub(grantedAt) > bound {
		// The lease expired while the read was in flight; the proof no
		// longer covers the reply. Not a violation — nothing stale was
		// observed — just an unproven answer.
		return fallback(c.fallbacks.expired)
	}
	c.mBoundedHits.Inc()
	c.mBoundedLatency.Observe(now.Sub(start))
	return it.Value, it.Version, true, nil
}

// fallbackCauses counts bounded fallbacks by cause; with the
// violations counter they sum to the fallback counter.
type fallbackCauses struct{ noLease, aged, legFailed, noValue, expired *telemetry.Counter }

func newFallbackCauses(tel *telemetry.Registry) fallbackCauses {
	return fallbackCauses{tel.Counter(MetricFallbackNoLease), tel.Counter(MetricFallbackAged),
		tel.Counter(MetricFallbackLegFailed), tel.Counter(MetricFallbackNoValue), tel.Counter(MetricFallbackExpired)}
}

// firstServed returns the first of holders — replica indices, in the
// proving round's reply-arrival order — that is not passed over at now
// (Unix nanoseconds), else the first of them: a passed-over holder is
// taken last, never excluded. A live lease has a holder.
func (c *Client) firstServed(holders []int, now int64) int {
	for _, i := range holders {
		if c.passedOver[i].Load() <= now {
			return i
		}
	}
	return holders[0]
}

// GetAny reads from one replica without waiting for a quorum — the
// paper's bottleneck-removal read path, which may return slightly
// stale data during synchronization windows. It is a one-leg read on
// the quorum read's fan-out, so it takes replicas in the same order: a
// failed leg launches a spare at once, and a slow one after
// hedgeAfter. A not-found answer from the replica that answers is
// final.
func (c *Client) GetAny(path string) (value []byte, version uint64, ok bool, err error) {
	ctx := context.Background()
	f := c.streamFanout(ctx, 1, c.mReadHedges, cmdlang.New("psget").SetString("path", path), decodeRead)
	prefix, err := f.awaitQuorum(1, "any read", false)
	c.mReadLatency.Observe(time.Since(f.start))
	c.finish(f, len(prefix), c.mReadStragglers, c.mReadFullLatency, nil, ctx)
	if err != nil {
		return nil, 0, false, err
	}
	// awaitQuorum returns at the one answer it needs.
	if r := prefix[len(prefix)-1]; r.ok && !r.item.Deleted {
		return r.item.Value, r.item.Version, true, nil
	}
	return nil, 0, false, nil
}
