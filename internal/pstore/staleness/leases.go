package staleness

import (
	"sync"
	"time"
)

// Leases is the proof side of bounded-staleness reads: a per-path
// table of quorum-validated freshness observations. An entry records
// that at time `at`, a quorum round (a quorum read, or this client's
// own quorum write) established `version` as the newest committed
// version of `path`, and that every replica in `holders` (indices into
// the client's replica list) answered that round holding it.
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
	longest time.Duration // the longest bound a reader has asked for
}

type lease struct {
	version uint64
	at      time.Time
	holders []int
	reads   uint64 // answered since the path's grant; a live re-grant keeps it
}

// DefaultLeaseCap bounds the lease table when NewLeases is given a
// non-positive capacity. Past the cap, a grant for a new path evicts
// one of a small sample of entries (see evictLocked) — eviction only
// costs quorum fallbacks, never correctness.
const DefaultLeaseCap = 4096

// leaseEvictProbes is how many entries a full table samples when
// choosing an eviction victim.
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
// Holders are indices into the client's replica list, in reply-arrival
// order, so the first one is the round's fastest responder. A grant at an older version than the
// recorded one is ignored; equal versions keep the newer observation.
func (l *Leases) Grant(path string, version uint64, holders []int, at time.Time) {
	if len(holders) == 0 {
		return
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, exists := l.entries[path]
	if exists && (version < cur.version || (version == cur.version && !at.After(cur.at))) {
		return
	}
	if !exists && len(l.entries) >= l.cap {
		l.evictLocked(now)
	}
	l.entries[path] = lease{version: version, at: at, holders: append([]int(nil), holders...), reads: l.readsLocked(cur, now)}
}

// readsLocked is the reads e has answered, or none once e is dead:
// older than the longest bound any reader has asked for.
func (l *Leases) readsLocked(e lease, now time.Time) uint64 {
	if now.Sub(e.at) > l.longest {
		return 0
	}
	return e.reads
}

// evictLocked removes, of a small sample of entries, the one that has
// answered the fewest reads (a dead one counts none), then the oldest
// grant; so a dead entry, older than any live one, goes first. A hot
// path's lease, proved long ago and read constantly, thus outlives a
// cold path's lease granted by its one fallback a moment ago. Map
// iteration order is the sample: free, but clumped, so now and then
// every sampled entry is a read lease and one of them goes.
func (l *Leases) evictLocked(now time.Time) {
	var victim string
	var fewest uint64
	var oldest time.Time
	probes := 0
	for p, e := range l.entries {
		if reads := l.readsLocked(e, now); probes == 0 || reads < fewest || reads == fewest && e.at.Before(oldest) {
			victim, fewest, oldest = p, reads, e.at
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
// proven to hold the version, and counts one read answered. When ok
// is false, at is the grant time of a lease too old for maxAge, or
// zero when the table holds none for path. An entry older than the
// longest bound any reader has asked for is dropped; one only older
// than this reader's maxAge stays for readers with a longer bound.
// The returned slice is owned by the table and never changed.
func (l *Leases) Holders(path string, maxAge time.Duration) (version uint64, at time.Time, holders []int, ok bool) {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.longest = max(l.longest, maxAge)
	e, exists := l.entries[path]
	if !exists {
		return 0, time.Time{}, nil, false
	}
	if now.Sub(e.at) > maxAge {
		if now.Sub(e.at) > l.longest {
			delete(l.entries, path)
		}
		return 0, e.at, nil, false
	}
	e.reads++
	l.entries[path] = e
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

// Len returns the current entry count.
func (l *Leases) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}
