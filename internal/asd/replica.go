package asd

// Replicated directory state (ROADMAP item 2). When a Service is
// configured with a Store, the in-memory Directory demotes itself to
// a cache: every registration, renewal, and unregistration is written
// through the persistent store's quorum fast path before it is acked,
// and any of N directory daemons backed by the same store can serve
// any request. Killing one replica loses nothing — the others read
// the lease state straight back out of the store.
//
// Coherence contract:
//
//   - The store is the authority. Memory is overwritten only by
//     entries with an equal-or-newer store version (Directory.Install),
//     so a replica with stale memory can never regress a lease
//     deadline another replica already acked (the renewal carried the
//     pstore version).
//   - Name lookups that miss in memory read through to the store, so
//     a replica that never saw a registration still resolves it.
//   - Expiry is confirmed, never assumed: a locally-lapsed entry is
//     re-read from the store first, and only reaped when the durable
//     deadline also lapsed. A renewal served by a sibling replica
//     therefore rescues the entry instead of expiring it.
//   - Scan lookups serve from memory; the sync loop (one pass per
//     reap interval) bounds their staleness by list-diffing the store
//     keyspace against memory.

import (
	"context"
	"fmt"
	"math"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/hier"
	"ace/internal/telemetry"
)

// Store is the slice of the persistent-store client surface the
// replicated directory needs. Both *pstore.Client and *pstore.Sharded
// satisfy it.
type Store interface {
	GetContext(ctx context.Context, path string) (value []byte, version uint64, ok bool, err error)
	PutContext(ctx context.Context, path string, value []byte) (uint64, error)
	DeleteContext(ctx context.Context, path string) error
	ListContext(ctx context.Context, prefix string) ([]string, error)
}

// boundedStore is the optional bounded-staleness read surface of a
// Store (*pstore.Client and *pstore.Sharded both provide it): a
// single-replica read proven no staler than bound, with a quorum
// fallback whenever the bound cannot be proven.
type boundedStore interface {
	GetBoundedContext(ctx context.Context, path string, bound time.Duration) (value []byte, version uint64, ok bool, err error)
}

// ResolveStaleness is the staleness bound for resolve-path store
// reads (name-lookup read-throughs). It is deliberately conservative:
// directory leases are seconds-scale, so a resolve up to 2s stale is
// within the liveness slack the lease protocol already tolerates —
// while the common case drops from a cross-replica quorum round to
// one replica's RTT. Lease renewals, expiry confirmation, and the
// sync loop never use it: those reads decide durable state and stay
// on the quorum path.
const ResolveStaleness = 2 * time.Second

// StorePrefix is the pstore keyspace holding directory entries, one
// object per registered service.
const StorePrefix = "/asd/entries"

// entryPath returns the store path for a service name. Names are
// cmdlang words (letters, digits, underscore), so they are always
// legal single path segments.
func entryPath(name string) string { return StorePrefix + "/" + name }

// entryDocName is the document encoding a directory entry is stored
// under. It reuses the cmdlang grammar the way placement maps do:
// it is a value format, not a wire verb.
const entryDocName = "dirent"

// encodeEntry renders an entry to its store representation.
func encodeEntry(e Entry) []byte {
	//acelint:ignore verbconformance dirent is a document encoding stored in pstore values, never dispatched as a command
	doc := cmdlang.New(entryDocName).
		SetWord("name", e.Name).
		SetWord("host", e.Host).
		SetInt("port", int64(e.Port)).
		SetString("addr", e.Addr).
		SetString("class", e.Class).
		SetInt("lease_ms", int64(e.Lease/time.Millisecond)).
		SetInt("expires_ns", e.Expires.UnixNano()).
		SetInt("registered_ns", e.Registered.UnixNano()).
		SetInt("renewals", int64(e.Renewals))
	if e.Room != "" {
		doc.SetWord("room", e.Room)
	}
	return doc.AppendTo(nil)
}

// decodeEntry parses a store value back into an entry carrying the
// store version it was read at.
func decodeEntry(value []byte, version uint64) (Entry, error) {
	doc, err := cmdlang.Parse(string(value))
	if err != nil {
		return Entry{}, fmt.Errorf("asd: corrupt directory entry: %w", err)
	}
	if doc.Name() != entryDocName {
		return Entry{}, fmt.Errorf("asd: directory entry has unexpected encoding %q", doc.Name())
	}
	name := doc.Str("name", "")
	if name == "" {
		return Entry{}, fmt.Errorf("asd: directory entry without a name")
	}
	leaseMS := doc.Int("lease_ms", 0)
	if leaseMS < 0 || leaseMS > math.MaxInt64/int64(time.Millisecond) {
		return Entry{}, fmt.Errorf("asd: directory entry %s has lease_ms %d out of range", name, leaseMS)
	}
	return Entry{
		Name:       name,
		Host:       doc.Str("host", ""),
		Port:       int(doc.Int("port", 0)),
		Addr:       doc.Str("addr", ""),
		Room:       doc.Str("room", ""),
		Class:      doc.Str("class", ""),
		Lease:      time.Duration(leaseMS) * time.Millisecond,
		Expires:    time.Unix(0, doc.Int("expires_ns", 0)),
		Registered: time.Unix(0, doc.Int("registered_ns", 0)),
		Renewals:   int(doc.Int("renewals", 0)),
		Version:    version,
	}, nil
}

// notFoundError marks replica failures the client fixes by
// re-registering (not listed, lease lapsed) as opposed to store
// trouble, which maps to a retryable unavailable reply instead.
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }

// replica is the store-backed implementation behind a replicated
// directory Service. It is nil on a standalone (in-memory) Service.
type replica struct {
	dir   *Directory
	store Store
	now   func() time.Time

	// storeSem bounds the detached store writes in flight (see
	// Service handlers): registration and renewal handlers detach off
	// the daemon's serial section so concurrent renewals pipeline their
	// quorum rounds, but never more than cap(storeSem) at once — over
	// the bound the handler falls back to doing the work inline, which
	// is the natural backpressure.
	storeSem chan struct{}

	mStoreReads   *telemetry.Counter
	mStoreWrites  *telemetry.Counter
	mStoreErrors  *telemetry.Counter
	mReadThroughs *telemetry.Counter
	mSyncRounds   *telemetry.Counter
	mRenewSaves   *telemetry.Counter
	mEntries      *telemetry.Gauge
}

// storeSlots is the bound on detached store operations in flight per
// directory replica.
const storeSlots = 32

func newReplica(dir *Directory, store Store, tel *telemetry.Registry) *replica {
	return &replica{
		dir:           dir,
		store:         store,
		now:           time.Now,
		storeSem:      make(chan struct{}, storeSlots),
		mStoreReads:   tel.Counter(MetricReplicaStoreReads),
		mStoreWrites:  tel.Counter(MetricReplicaStoreWrites),
		mStoreErrors:  tel.Counter(MetricReplicaStoreErrors),
		mReadThroughs: tel.Counter(MetricReplicaReadThroughs),
		mSyncRounds:   tel.Counter(MetricReplicaSyncRounds),
		mRenewSaves:   tel.Counter(MetricReplicaRenewSaves),
		mEntries:      tel.Gauge(MetricReplicaEntries),
	}
}

// load reads one entry from the store through the quorum path,
// installing it into memory when found. ok is false when the store
// holds nothing for the name.
func (r *replica) load(ctx context.Context, name string) (Entry, bool, error) {
	return r.loadWith(ctx, name, r.store.GetContext)
}

// loadResolve is load for the resolve path: when the store offers the
// bounded read spectrum, the entry comes from a single replica proven
// no staler than ResolveStaleness (quorum fallback inside the store
// client otherwise). Safe for the directory cache because Install
// only admits equal-or-newer store versions — a stale read can never
// regress memory.
func (r *replica) loadResolve(ctx context.Context, name string) (Entry, bool, error) {
	bs, ok := r.store.(boundedStore)
	if !ok {
		return r.load(ctx, name)
	}
	return r.loadWith(ctx, name, func(ctx context.Context, path string) ([]byte, uint64, bool, error) {
		return bs.GetBoundedContext(ctx, path, ResolveStaleness)
	})
}

func (r *replica) loadWith(ctx context.Context, name string, get func(context.Context, string) ([]byte, uint64, bool, error)) (Entry, bool, error) {
	r.mStoreReads.Inc()
	value, version, ok, err := get(ctx, entryPath(name))
	if err != nil {
		r.mStoreErrors.Inc()
		return Entry{}, false, fmt.Errorf("asd: directory store read: %w", err)
	}
	if !ok {
		return Entry{}, false, nil
	}
	e, err := decodeEntry(value, version)
	if err != nil {
		r.mStoreErrors.Inc()
		return Entry{}, false, err
	}
	r.dir.Install(e)
	return e, true, nil
}

// save writes one entry through the store's quorum path and installs
// the result (carrying the new store version) into memory.
func (r *replica) save(ctx context.Context, e Entry) (Entry, error) {
	r.mStoreWrites.Inc()
	version, err := r.store.PutContext(ctx, entryPath(e.Name), encodeEntry(e))
	if err != nil {
		r.mStoreErrors.Inc()
		return Entry{}, fmt.Errorf("asd: directory store write: %w", err)
	}
	e.Version = version
	r.dir.Install(e)
	return e, nil
}

// register admits a new (or replacing) registration: validated, lease
// clamped, quorum-written, then cached.
func (r *replica) register(ctx context.Context, e Entry) (time.Duration, error) {
	if err := validateEntry(&e); err != nil {
		return 0, err
	}
	now := r.now()
	e.Lease = clampLease(e.Lease)
	e.Registered = now
	e.Expires = now.Add(e.Lease)
	if _, err := r.save(ctx, e); err != nil {
		return 0, err
	}
	return e.Lease, nil
}

// renew extends a lease. The current entry comes from memory when
// live there; a miss or a locally-lapsed deadline reads through to
// the store first, which is what lets any replica take over renewals
// for entries it never registered — including one whose last renewal
// was acked by a replica that died a millisecond later.
func (r *replica) renew(ctx context.Context, name string, lease time.Duration) (time.Duration, error) {
	lease = clampLease(lease)
	now := r.now()
	e, inMem := r.dir.Peek(name)
	if !inMem || now.After(e.Expires) {
		se, inStore, err := r.load(ctx, name)
		if err != nil {
			return 0, err
		}
		switch {
		case !inStore && !inMem:
			return 0, &notFoundError{fmt.Sprintf("asd: %q is not registered", name)}
		case !inStore:
			// Memory had it, the store does not: another replica
			// already expired or unregistered it (and fired the
			// notifications). Drop the shadow silently.
			r.dir.Drop(name, e.Version)
			return 0, &notFoundError{fmt.Sprintf("asd: %q is not registered", name)}
		default:
			if inMem && now.After(e.Expires) && !now.After(se.Expires) {
				// The local deadline lapsed but the durable one did
				// not — a sibling replica renewed this lease. The
				// store version on the renewal is what saved it.
				r.mRenewSaves.Inc()
			}
			e = se
		}
	}
	if now.After(e.Expires) {
		// The durable lease lapsed too. Confirmed expiration: remove
		// from the store and from memory, counters and callbacks
		// agreeing with the Reap path.
		if err := r.store.DeleteContext(ctx, entryPath(name)); err != nil {
			r.mStoreErrors.Inc()
			// The entry stays; the sync loop retries the removal.
			return 0, fmt.Errorf("asd: directory store delete: %w", err)
		}
		r.dir.Expire(name)
		return 0, &notFoundError{fmt.Sprintf("asd: lease of %q expired", name)}
	}
	e.Expires = now.Add(lease)
	e.Lease = lease
	e.Renewals++
	if _, err := r.save(ctx, e); err != nil {
		return 0, err
	}
	return lease, nil
}

// unregister removes a service from the store and memory, reporting
// whether anything was listed anywhere.
func (r *replica) unregister(ctx context.Context, name string) (bool, error) {
	existed := r.dir.Unregister(name)
	if !existed {
		// The entry may live in the store without this replica ever
		// having cached it.
		_, inStore, err := r.load(ctx, name)
		if err != nil {
			return false, err
		}
		if inStore {
			r.dir.Unregister(name)
		}
		existed = inStore
	}
	if err := r.store.DeleteContext(ctx, entryPath(name)); err != nil {
		r.mStoreErrors.Inc()
		return existed, fmt.Errorf("asd: directory store delete: %w", err)
	}
	return existed, nil
}

// lookup serves a query. Name queries that miss in memory read
// through to the store before answering not-found, so a fresh replica
// resolves services registered through its siblings; scan queries
// serve from memory, whose staleness the sync loop bounds.
func (r *replica) lookup(ctx context.Context, q Query) []Entry {
	out := r.dir.Lookup(q)
	if len(out) > 0 || q.Name == "" {
		return out
	}
	if _, cached := r.dir.Peek(q.Name); cached {
		// Memory holds the entry but Lookup filtered it (lapsed, or
		// the class/room filters excluded it). The store would say
		// the same or be handled by the sync loop; no read-through.
		return nil
	}
	r.mReadThroughs.Inc()
	// Answer from the entry the store just returned, not from a second
	// look at memory: a sibling's change notification may evict it again
	// in between, and the service is registered all the same.
	e, ok, err := r.loadResolve(ctx, q.Name)
	if err != nil || !ok || !q.admits(e, r.now()) {
		return nil
	}
	return []Entry{e}
}

// invalidate evicts the named entry from memory unless memory holds a
// strictly newer version; the next touch reads through. Driven by
// sibling-replica change notifications.
func (r *replica) invalidate(name string, version uint64) {
	r.dir.Drop(name, version)
}

// sync is one convergence pass, run every reap interval in place of
// the standalone reaper:
//
//  1. the store keyspace is list-diffed against memory — entries in
//     the store this replica never cached are loaded, entries in
//     memory the store no longer holds are dropped (a sibling expired
//     or unregistered them);
//  2. every locally-lapsed entry is confirmed against the store:
//     still-live durable leases are adopted (a sibling renewed),
//     lapsed ones are deleted from the store and expired locally.
//
// It returns the confirmed expirations so the Service can fire the
// §2.6 "expired" notifications.
func (r *replica) sync(ctx context.Context) []Entry {
	r.mSyncRounds.Inc()
	inStore := map[string]bool{}
	paths, err := r.store.ListContext(ctx, StorePrefix+"/")
	if err != nil {
		r.mStoreErrors.Inc()
	} else {
		for _, p := range paths {
			name := p[len(StorePrefix)+1:]
			inStore[name] = true
			if _, ok := r.dir.Peek(name); !ok {
				if _, _, err := r.load(ctx, name); err != nil {
					break // store trouble; retry next pass
				}
			}
		}
	}
	var expired []Entry
	now := r.now()
	for _, name := range r.dir.Names() {
		e, ok := r.dir.Peek(name)
		if !ok {
			continue
		}
		if err == nil && !inStore[name] {
			// Gone from the store: a sibling already removed (and
			// counted, and notified) it.
			r.dir.Drop(name, e.Version)
			continue
		}
		if !now.After(e.Expires) {
			continue
		}
		se, stillThere, lerr := r.load(ctx, name)
		if lerr != nil {
			continue // can't confirm; never expire on local state alone
		}
		if !stillThere {
			r.dir.Drop(name, e.Version)
			continue
		}
		if !now.After(se.Expires) {
			r.mRenewSaves.Inc() // sibling's renewal rescued it
			continue
		}
		if derr := r.store.DeleteContext(ctx, entryPath(name)); derr != nil {
			r.mStoreErrors.Inc()
			continue // retried next pass
		}
		if reaped, ok := r.dir.Expire(name); ok {
			expired = append(expired, reaped)
		}
	}
	r.mEntries.Set(int64(r.dir.Len()))
	return expired
}

// validateEntry applies the Register-path validation to a replicated
// registration.
func validateEntry(e *Entry) error {
	if e.Name == "" {
		return fmt.Errorf("asd: registration without a name")
	}
	if e.Class == "" {
		e.Class = hier.Root
	}
	if !hier.Valid(e.Class) {
		return fmt.Errorf("asd: invalid class %q", e.Class)
	}
	return nil
}
