// Package asd implements the ACE Service Directory (§2.4, Fig 7):
// the central listing of services currently available in the
// environment. Services register at startup, renew leases
// periodically, and are reaped automatically when a lease expires —
// the mechanism that removes daemons that died without unregistering.
package asd

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ace/internal/hier"
)

// DefaultLease is applied when a registration does not request one.
const DefaultLease = 10 * time.Second

// MaxLease caps requested leases so a buggy daemon cannot pin a dead
// entry for hours.
const MaxLease = 5 * time.Minute

// Entry is one directory listing.
type Entry struct {
	Name       string
	Host       string
	Port       int
	Addr       string // dialable "host:port"
	Room       string
	Class      string
	Lease      time.Duration
	Expires    time.Time
	Registered time.Time
	// Renewals counts the renewals that moved the deadline. In a
	// replicated directory that is the written ones: a renewal answered
	// from memory (replica.renewHeld) leaves the entry as it is.
	Renewals int
	// Version is the persistent-store version of this entry in a
	// replicated directory (zero in a standalone in-memory directory).
	// A replica only overwrites its in-memory copy with an entry whose
	// version is at least as new, so a lease deadline acked by another
	// replica can never be regressed by stale local state.
	Version uint64
}

// Directory is the lease-managed listing. It is independent of the
// daemon shell so it can be unit-tested with a synthetic clock; the
// Service type wraps it as an ACE daemon.
type Directory struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	now     func() time.Time

	// onExpire, if set, is called (outside the lock) for each reaped
	// entry.
	onExpire func(Entry)
}

// NewDirectory returns an empty directory using the real clock.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[string]*Entry), now: time.Now}
}

// SetClock injects a time source (tests).
func (d *Directory) SetClock(now func() time.Time) { d.now = now }

// SetOnExpire installs the expiry callback.
func (d *Directory) SetOnExpire(fn func(Entry)) {
	d.mu.Lock()
	d.onExpire = fn
	d.mu.Unlock()
}

// Register inserts or replaces the named service's entry and returns
// the granted lease.
func (d *Directory) Register(e Entry) (time.Duration, error) {
	if e.Name == "" {
		return 0, fmt.Errorf("asd: registration without a name")
	}
	if e.Class == "" {
		e.Class = hier.Root
	}
	if !hier.Valid(e.Class) {
		return 0, fmt.Errorf("asd: invalid class %q", e.Class)
	}
	lease := clampLease(e.Lease)
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	e.Lease = lease
	e.Registered = now
	e.Expires = now.Add(lease)
	d.entries[e.Name] = &e
	return lease, nil
}

func clampLease(l time.Duration) time.Duration {
	switch {
	case l <= 0:
		return DefaultLease
	case l > MaxLease:
		return MaxLease
	default:
		return l
	}
}

// Renew extends the named service's lease. It fails if the service is
// not (or no longer) listed, prompting the daemon to re-register.
func (d *Directory) Renew(name string, lease time.Duration) (time.Duration, error) {
	lease = clampLease(lease)
	d.mu.Lock()
	e, ok := d.entries[name]
	if !ok {
		d.mu.Unlock()
		return 0, fmt.Errorf("asd: %q is not registered", name)
	}
	if d.now().After(e.Expires) {
		// Lease already lapsed; treat as gone so the caller
		// re-registers with fresh details. This is an expiration like
		// any Reap discovers, so the expiry callback fires too.
		reaped := *e
		delete(d.entries, name)
		cb := d.onExpire
		d.mu.Unlock()
		if cb != nil {
			cb(reaped)
		}
		return 0, fmt.Errorf("asd: lease of %q expired", name)
	}
	e.Expires = d.now().Add(lease)
	e.Lease = lease
	e.Renewals++
	d.mu.Unlock()
	return lease, nil
}

// Unregister removes the named service; it reports whether the entry
// existed.
func (d *Directory) Unregister(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.entries[name]
	delete(d.entries, name)
	return ok
}

// Get returns the live entry for name.
func (d *Directory) Get(name string) (Entry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[name]
	if !ok || d.now().After(e.Expires) {
		return Entry{}, false
	}
	return *e, true
}

// Query describes a directory search: any non-zero field must match.
// Class matches subclasses (asking for "Service.Device" finds every
// device).
type Query struct {
	Name  string
	Class string
	Room  string
}

// admits reports whether e, an entry named as q asks (or q names
// none), is live at now and passes q's class and room filters.
func (q Query) admits(e Entry, now time.Time) bool {
	return !now.After(e.Expires) &&
		(q.Class == "" || hier.IsSubclassOf(e.Class, q.Class)) &&
		(q.Room == "" || e.Room == q.Room)
}

// Lookup returns all live entries matching q, sorted by name.
//
// Lookups are the directory's hot path, and under a lookup storm any
// time spent holding the write-excluding lock is time lease renewals
// cannot run — exactly the window in which live services expire. So
// Lookup takes only a read lock (lookups proceed in parallel with one
// another), serves name queries with a single map probe, and for scan
// queries snapshots the candidate entries under the lock while doing
// the expensive part — class-hierarchy matching and sorting — outside
// it.
func (d *Directory) Lookup(q Query) []Entry {
	now := d.now()
	if q.Name != "" {
		// Name is the unique key: one map probe, no scan, no sort.
		d.mu.RLock()
		e, ok := d.entries[q.Name]
		var snap Entry
		if ok {
			snap = *e
		}
		d.mu.RUnlock()
		if !ok || !q.admits(snap, now) {
			return nil
		}
		return []Entry{snap}
	}

	d.mu.RLock()
	candidates := make([]Entry, 0, len(d.entries))
	for _, e := range d.entries {
		// Cheap equality filters run under the lock (they shrink the
		// copy); everything costlier waits until the lock is released.
		if now.After(e.Expires) {
			continue
		}
		if q.Room != "" && e.Room != q.Room {
			continue
		}
		candidates = append(candidates, *e)
	}
	d.mu.RUnlock()

	out := candidates[:0]
	for i := range candidates {
		if q.Class != "" && !hier.IsSubclassOf(candidates[i].Class, q.Class) {
			continue
		}
		out = append(out, candidates[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reap removes every expired entry and returns the reaped listings.
func (d *Directory) Reap() []Entry {
	d.mu.Lock()
	now := d.now()
	var reaped []Entry
	for name, e := range d.entries {
		if now.After(e.Expires) {
			reaped = append(reaped, *e)
			delete(d.entries, name)
		}
	}
	cb := d.onExpire
	d.mu.Unlock()
	if cb != nil {
		for _, e := range reaped {
			cb(e)
		}
	}
	return reaped
}

// Len returns the number of listings (including not-yet-reaped
// expired ones).
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// The methods below are the raw cache surface the replicated
// directory (replica.go) is built on: they move entries in and out of
// memory without lease bookkeeping, because in replicated mode the
// persistent store — not this map — is the authority.

// Peek returns the named entry even when its lease has lapsed. The
// replica layer uses it to find candidates whose expiry must be
// confirmed against the store before anything is reaped.
func (d *Directory) Peek(name string) (Entry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[name]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Install inserts or replaces the named entry iff it is at least as
// new (by store version) as what memory holds, reporting whether it
// was applied. Unlike Register it validates nothing: the entry was
// already admitted by whichever replica wrote it to the store.
func (d *Directory) Install(e Entry) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.entries[e.Name]; ok && e.Version < cur.Version {
		return false
	}
	d.entries[e.Name] = &e
	return true
}

// Drop removes the named entry iff memory does not hold a version
// newer than maxVersion, reporting whether it was removed. The expiry
// callback does not fire — it is for entries some other replica
// already expired or unregistered (and counted).
func (d *Directory) Drop(name string, maxVersion uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.entries[name]
	if !ok || cur.Version > maxVersion {
		return false
	}
	delete(d.entries, name)
	return true
}

// Expire removes the named entry as a confirmed lease expiration:
// the expiry callback fires, exactly like a Reap discovery. The
// replica layer calls it only after the store agreed the lease lapsed.
func (d *Directory) Expire(name string) (Entry, bool) {
	d.mu.Lock()
	e, ok := d.entries[name]
	if !ok {
		d.mu.Unlock()
		return Entry{}, false
	}
	reaped := *e
	delete(d.entries, name)
	cb := d.onExpire
	d.mu.Unlock()
	if cb != nil {
		cb(reaped)
	}
	return reaped, true
}

// Names returns every listed name, lapsed entries included.
func (d *Directory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.entries))
	for name := range d.entries {
		out = append(out, name)
	}
	return out
}
