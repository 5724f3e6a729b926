package staleness

import (
	"sync"
	"time"
)

// Leases is the proof side of bounded-staleness reads: a per-path
// table of quorum-validated freshness observations. An entry records
// that at time `at`, a quorum round (a quorum read, or this client's
// own quorum write) established `version` as the newest committed
// version of `path`, and that every replica in `holders` answered
// that round holding it.
//
// The soundness argument is deliberately independent of clocks on
// other machines: a quorum intersects the write majority of every
// committed write, so a holder could only be missing writes committed
// AFTER the validating round began. A single-replica read served from
// a holder within Δ of `at` (both readings of this process's own
// clock) is therefore missing at most Δ of history — no matter how
// skewed the replicas' clocks are, and no matter which unrelated
// writes the replica has or has not applied: a lease names the exact
// path it vouches for.
//
// Leases are granted by quorum traffic, never by bounded reads
// themselves, so the bounded path re-validates through a real quorum
// at least once per Δ. All methods are safe for concurrent use.
type Leases struct {
	now func() time.Time
	cap int

	mu      sync.Mutex
	entries map[string]lease
}

type lease struct {
	version uint64
	at      time.Time
	holders []string
}

// DefaultLeaseCap bounds the lease table when NewLeases is given a
// non-positive capacity. Past the cap, grants evict the oldest of a
// small sample of entries — eviction only costs quorum fallbacks,
// never correctness.
const DefaultLeaseCap = 4096

// leaseEvictProbes is how many entries a full table samples when
// choosing an eviction victim (oldest of the sample goes).
const leaseEvictProbes = 8

// NewLeases builds a lease table. capacity bounds the entry count
// (non-positive = DefaultLeaseCap); now injects the time source used
// for expiry (nil = time.Now).
func NewLeases(capacity int, now func() time.Time) *Leases {
	if capacity <= 0 {
		capacity = DefaultLeaseCap
	}
	if now == nil {
		now = time.Now
	}
	return &Leases{now: now, cap: capacity, entries: make(map[string]lease)}
}

// Grant records a quorum-validated observation: every replica in
// holders held version at time at (the START of the validating round
// — a write's applied round, a read's fan-out launch — so that any
// write the holders could be missing is provably younger than at).
// Callers list holders in reply-arrival order, so the first one is
// the round's fastest responder. A grant at an older version than the
// recorded one is ignored; equal versions keep the newer observation.
func (l *Leases) Grant(path string, version uint64, holders []string, at time.Time) {
	if len(holders) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, exists := l.entries[path]
	if exists && (version < cur.version || (version == cur.version && !at.After(cur.at))) {
		return
	}
	if !exists && len(l.entries) >= l.cap {
		l.evictLocked()
	}
	l.entries[path] = lease{version: version, at: at, holders: append([]string(nil), holders...)}
}

// evictLocked removes the oldest of a small sample of entries (map
// iteration order is an adequate random sample).
func (l *Leases) evictLocked() {
	var victim string
	var oldest time.Time
	probes := 0
	for p, e := range l.entries {
		if probes == 0 || e.at.Before(oldest) {
			victim, oldest = p, e.at
		}
		probes++
		if probes >= leaseEvictProbes {
			break
		}
	}
	if probes > 0 {
		delete(l.entries, victim)
	}
}

// Holders returns the lease for path when one exists and is younger
// than maxAge: the validated version, the grant time (callers re-check
// expiry against it after the wire round-trip), and the replicas
// proven to hold the version. Expired entries are dropped. The
// returned slice is owned by the table; callers must not mutate it.
func (l *Leases) Holders(path string, maxAge time.Duration) (version uint64, at time.Time, holders []string, ok bool) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	e, exists := l.entries[path]
	if !exists {
		return 0, time.Time{}, nil, false
	}
	if now.Sub(e.at) > maxAge {
		delete(l.entries, path)
		return 0, time.Time{}, nil, false
	}
	return e.version, e.at, e.holders, true
}

// Drop retires the lease for path: a deletion, a not-found answer, or
// a version regression from a holder all mean the observation no
// longer describes the cluster.
func (l *Leases) Drop(path string) {
	l.mu.Lock()
	delete(l.entries, path)
	l.mu.Unlock()
}

// Reset drops every lease. The sharded router calls it when a
// placement epoch changes: partitions may have moved, so holder sets
// recorded under the old map no longer name serving replicas.
func (l *Leases) Reset() {
	l.mu.Lock()
	l.entries = make(map[string]lease)
	l.mu.Unlock()
}

// Len returns the current entry count.
func (l *Leases) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
