package pstore

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ace/internal/pstore/staleness"
)

// The store's reads are three methods, one per point on the
// consistency spectrum:
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
//     directory resolves, placement lookups, and sensor/room state
//     that tolerate bounded lag.
//   - GetAny: first reachable replica, best effort, no bound. May
//     return stale data during synchronization windows.

// Staleness returns the AIMD controller gating the bounded path.
// Shared by all group clients of a sharded deployment; exposed for
// inspection (stats, tests).
func (c *Client) Staleness() *staleness.Controller { return c.ctl }

// Leases returns the client's freshness-lease table — the proof
// bounded reads rely on. Shared by all group clients of a sharded
// deployment; exposed for inspection (stats, tests).
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
// The lease alone decides eligibility. Two things still send an
// eligible read to the quorum path (conservative, never wrong): no
// live lease for the path names a replica this client serves, or the
// AIMD controller withholds its share after recent trouble.
//
// A violation is a version regression: a lease holder answering
// below the quorum-validated version means the replica lost state
// (or the lease lied). The reply is discarded — counted, never
// served — the lease is dropped, and the read re-runs as a quorum.
// Misses, redirects, and transport errors take the quorum fallback
// too, and that quorum round's new lease lists only replicas that
// answered it: the bound is only ever claimed when it is proven.
func (c *Client) GetBoundedContext(ctx context.Context, path string, bound time.Duration) (value []byte, version uint64, ok bool, err error) {
	start := time.Now()
	fallback := func() ([]byte, uint64, bool, error) {
		c.mBoundedFallbacks.Inc()
		c.mStaleShare.Set(int64(c.ctl.Share() * 1000))
		return c.GetContext(ctx, path)
	}
	leaseVer, grantedAt, holders, live := c.leases.Holders(path, bound)
	if !live {
		return fallback()
	}
	// Holders are recorded in the reply-arrival order of the proving
	// quorum round, so the first is that round's fastest responder. A
	// sharded router shares the lease table across group clients, and
	// a rebalance can record holders outside this client's group; only
	// replicas this client serves are candidates. Admission is checked
	// after eligibility so a fallback with no candidate never debits
	// the AIMD share.
	addr, eligible := c.firstServed(holders)
	if !eligible || !c.ctl.Allow() {
		return fallback()
	}
	it, held, callErr := c.readReplica(ctx, addr, path)
	if callErr != nil {
		c.ctl.Redirect()
		return fallback()
	}
	if !held || it.Deleted {
		// A proven holder with no live value: either the path was
		// deleted or the replica lost state. Both retire the lease and
		// let the quorum decide.
		c.leases.Drop(path)
		return fallback()
	}
	if it.Version < leaseVer {
		// Version regression below the quorum-validated lease: the
		// replica no longer holds what a quorum proved it held. Discard
		// the reply — it is never served.
		c.mStaleViolations.Inc()
		c.ctl.Violation()
		c.leases.Drop(path)
		return fallback()
	}
	if time.Since(grantedAt) > bound {
		// The lease expired while the read was in flight; the proof no
		// longer covers the reply. Not a violation — nothing stale was
		// observed — just an unproven answer.
		return fallback()
	}
	c.ctl.Success()
	c.mBoundedHits.Inc()
	c.mBoundedLatency.Observe(time.Since(start))
	c.mStaleShare.Set(int64(c.ctl.Share() * 1000))
	return it.Value, it.Version, true, nil
}

// firstServed returns the first of holders that is one of this
// client's replicas.
func (c *Client) firstServed(holders []string) (string, bool) {
	for _, h := range holders {
		if slices.Contains(c.replicas, h) {
			return h, true
		}
	}
	return "", false
}

// GetAny reads from the first reachable replica without waiting for a
// quorum — the paper's bottleneck-removal read path, which may return
// slightly stale data during synchronization windows. A not-found
// answer from any replica is final.
func (c *Client) GetAny(path string) (value []byte, version uint64, ok bool, err error) {
	var lastErr error
	for _, addr := range c.replicas {
		it, held, callErr := c.readReplica(context.Background(), addr, path)
		switch {
		case callErr != nil:
			lastErr = callErr // unreachable or corrupt: try the next one
		case !held || it.Deleted:
			return nil, 0, false, nil
		default:
			return it.Value, it.Version, true, nil
		}
	}
	return nil, 0, false, fmt.Errorf("pstore: no replica reachable: %w", lastErr)
}
