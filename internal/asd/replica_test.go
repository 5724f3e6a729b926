package asd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ace/internal/telemetry"
)

// memStore is an in-process Store fake with pstore-like versioning:
// every put bumps the path's version by one, reads return the stored
// version, deletes remove the path. It lets replica-layer semantics
// (version fencing, confirmed expiry, sync convergence) be tested
// with a synthetic clock and no cluster.
type memStore struct {
	mu    sync.Mutex
	items map[string]memItem
	fail  error // when set, every operation returns it
}

type memItem struct {
	value   []byte
	version uint64
}

func newMemStore() *memStore { return &memStore{items: make(map[string]memItem)} }

func (m *memStore) GetContext(_ context.Context, path string) ([]byte, uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return nil, 0, false, m.fail
	}
	it, ok := m.items[path]
	if !ok {
		return nil, 0, false, nil
	}
	return it.value, it.version, true, nil
}

func (m *memStore) PutContext(_ context.Context, path string, value []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return 0, m.fail
	}
	it := m.items[path]
	it.version++
	it.value = append([]byte(nil), value...)
	m.items[path] = it
	return it.version, nil
}

func (m *memStore) DeleteContext(_ context.Context, path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	delete(m.items, path)
	return nil
}

func (m *memStore) ListContext(_ context.Context, prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return nil, m.fail
	}
	var out []string
	for p := range m.items {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	return out, nil
}

// newTestReplica builds a replica over store sharing one fake clock
// between the directory and the replica layer.
func newTestReplica(store Store) (*replica, *fakeClock) {
	dir := NewDirectory()
	clock := newFakeClock()
	dir.SetClock(clock.now)
	r := newReplica(dir, store, telemetry.NewRegistry())
	r.now = clock.now
	return r, clock
}

func TestEntryCodecRoundTrip(t *testing.T) {
	in := Entry{
		Name: "cam1", Host: "bar", Port: 1225, Addr: "bar:1225",
		Room: "hawk", Class: "Service.Device.PTZCamera",
		Lease:      1500 * time.Millisecond,
		Expires:    time.Unix(0, 1234567890),
		Registered: time.Unix(0, 1234000000),
		Renewals:   7,
	}
	out, err := decodeEntry(encodeEntry(in), 42)
	if err != nil {
		t.Fatal(err)
	}
	in.Version = 42
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if _, err := decodeEntry([]byte("not a document"), 1); err == nil {
		t.Fatal("garbage decoded")
	}
}

// FuzzDecodeEntry: whatever bytes the store hands back for a directory
// entry, decodeEntry never panics; and an entry it accepts is one the
// codec stands behind — it carries a name and the version it was read
// at, and writing it back and reading it again gives the same entry.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeEntry(Entry{
		Name: "cam1", Host: "bar", Port: 1225, Addr: "bar:1225",
		Room: "hawk", Class: "Service.Device.PTZCamera",
		Lease:      1500 * time.Millisecond,
		Expires:    time.Unix(0, 1234567890),
		Registered: time.Unix(0, 1234000000),
		Renewals:   7,
	}), uint64(42))
	f.Add(encodeEntry(Entry{Name: "bare"}), uint64(0))
	f.Add([]byte("not a document"), uint64(1))
	f.Add([]byte("dirent;"), uint64(1))             // no name
	f.Add([]byte(`placemap name=cam1;`), uint64(1)) // another document
	f.Add([]byte(`dirent name="two words" port=x lease_ms=1.5;`), uint64(3))
	f.Add([]byte(`dirent name=cam1 lease_ms=9223372036855;`), uint64(3)) // one ms more than a Duration holds
	f.Add([]byte(`dirent name=cam1 lease_ms=-1;`), uint64(3))
	f.Fuzz(func(t *testing.T, value []byte, version uint64) {
		e, err := decodeEntry(value, version)
		if err != nil {
			return
		}
		if e.Name == "" || e.Version != version || e.Lease < 0 {
			t.Fatalf("accepted %q as %+v at version %d", value, e, version)
		}
		again, err := decodeEntry(encodeEntry(e), version)
		if err != nil || again != e {
			t.Fatalf("%q decoded to %+v, which re-encodes to %+v (err %v)", value, e, again, err)
		}
	})
}

func TestReplicaRegisterVisibleAcrossReplicas(t *testing.T) {
	store := newMemStore()
	a, _ := newTestReplica(store)
	b, _ := newTestReplica(store)
	ctx := context.Background()

	lease, err := a.register(ctx, Entry{Name: "cam1", Addr: "bar:1225", Lease: time.Minute})
	if err != nil || lease != time.Minute {
		t.Fatalf("lease=%v err=%v", lease, err)
	}
	// B never saw the registration; its name lookup reads through.
	got := b.lookup(ctx, Query{Name: "cam1"})
	if len(got) != 1 || got[0].Addr != "bar:1225" {
		t.Fatalf("got=%v", got)
	}
	if b.mReadThroughs.Value() != 1 {
		t.Fatalf("read_throughs=%d", b.mReadThroughs.Value())
	}
	// Second lookup is served from memory.
	if got := b.lookup(ctx, Query{Name: "cam1"}); len(got) != 1 {
		t.Fatalf("got=%v", got)
	}
	if b.mReadThroughs.Value() != 1 {
		t.Fatalf("read_throughs=%d after warm lookup", b.mReadThroughs.Value())
	}
}

// A sibling's change notification may evict an entry the instant a
// read-through installed it. The lookup answers from what the store
// returned, not from a second look at memory — which used to find
// nothing and report a registered service as not found. Every reading
// of the directory's clock stands in for the notification landing.
func TestLookupAnswersFromTheReadThrough(t *testing.T) {
	store := newMemStore()
	a, _ := newTestReplica(store)
	b, clock := newTestReplica(store)
	ctx := context.Background()
	if _, err := a.register(ctx, Entry{Name: "cam1", Addr: "bar:1225", Room: "hawk", Lease: time.Minute}); err != nil {
		t.Fatal(err)
	}
	b.dir.SetClock(func() time.Time {
		b.invalidate("cam1", ^uint64(0))
		return clock.now()
	})
	if got := b.lookup(ctx, Query{Name: "cam1"}); len(got) != 1 || got[0].Addr != "bar:1225" {
		t.Fatalf("got=%v, want the entry read through the store", got)
	}
	// The query's filters and the lease still apply to that entry.
	if got := b.lookup(ctx, Query{Name: "cam1", Room: "osprey"}); len(got) != 0 {
		t.Fatalf("got=%v for another room", got)
	}
	clock.advance(2 * time.Minute)
	if got := b.lookup(ctx, Query{Name: "cam1"}); len(got) != 0 {
		t.Fatalf("got=%v after the lease lapsed", got)
	}
}

// Satellite: a renewal acked by one replica just before it dies must
// not be lost by the replica that takes over. The renewal carried the
// store version, so the survivor's stale memory can never regress the
// lease deadline — it adopts the newer durable deadline instead of
// expiring the entry.
func TestReplicaRenewalSurvivesFailover(t *testing.T) {
	store := newMemStore()
	a, clockA := newTestReplica(store)
	b, clockB := newTestReplica(store)
	ctx := context.Background()

	if _, err := a.register(ctx, Entry{Name: "svc", Addr: "h:1", Lease: time.Second}); err != nil {
		t.Fatal(err)
	}
	// B caches the registration-era entry (deadline T0+1s).
	if got := b.lookup(ctx, Query{Name: "svc"}); len(got) != 1 {
		t.Fatalf("got=%v", got)
	}

	// The "primary" A acks one more renewal at T0+800ms (durable
	// deadline now T0+1.8s)… and dies.
	clockA.advance(800 * time.Millisecond)
	clockB.advance(800 * time.Millisecond)
	if _, err := a.renew(ctx, "svc", time.Second); err != nil {
		t.Fatal(err)
	}

	// At T0+1.2s B's cached deadline has lapsed but the durable one
	// has not. B must serve the renewal, not expire the lease.
	clockB.advance(400 * time.Millisecond)
	if _, err := b.renew(ctx, "svc", time.Second); err != nil {
		t.Fatalf("takeover renewal failed: %v", err)
	}
	if saves := b.mRenewSaves.Value(); saves != 1 {
		t.Fatalf("renew_saves=%d", saves)
	}
	if _, exp := b.dir.Counters(); exp != 0 {
		t.Fatalf("expirations=%d — failover lost the renewal", exp)
	}

	// Same protection on the sync path: a stale local deadline with a
	// fresh durable one is rescued, not reaped.
	if _, err := b.renew(ctx, "svc", time.Second); err != nil {
		t.Fatal(err)
	}
	a.dir.SetClock(clockB.now)
	a.now = clockB.now
	// A's memory still holds the pre-takeover deadline (T0+1.8s); B's
	// latest renewal pushed the durable one to T0+2.2s. At T0+2.0s
	// A's copy looks lapsed but the lease is alive.
	clockB.advance(800 * time.Millisecond)
	if reaped := a.sync(ctx); len(reaped) != 0 {
		t.Fatalf("sync reaped %v despite a durable renewal", reaped)
	}
	if _, exp := a.dir.Counters(); exp != 0 {
		t.Fatalf("expirations=%d", exp)
	}
}

func TestReplicaConfirmedExpiry(t *testing.T) {
	store := newMemStore()
	a, clock := newTestReplica(store)
	ctx := context.Background()

	if _, err := a.register(ctx, Entry{Name: "dead", Addr: "h:1", Lease: time.Second}); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Second)

	// Renewal after a durable lapse is a confirmed expiration: the
	// entry leaves the store, the counter bumps, and the error is the
	// client-fixable kind.
	_, err := a.renew(ctx, "dead", time.Second)
	var nf *notFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("err=%v", err)
	}
	if _, exp := a.dir.Counters(); exp != 1 {
		t.Fatalf("expirations=%d", exp)
	}
	if _, _, ok, _ := store.GetContext(ctx, entryPath("dead")); ok {
		t.Fatal("expired entry still in store")
	}

	// The sync path reaps durably-lapsed entries the same way.
	if _, err := a.register(ctx, Entry{Name: "dead2", Addr: "h:2", Lease: time.Second}); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Second)
	reaped := a.sync(ctx)
	if len(reaped) != 1 || reaped[0].Name != "dead2" {
		t.Fatalf("reaped=%v", reaped)
	}
	if _, exp := a.dir.Counters(); exp != 2 {
		t.Fatalf("expirations=%d", exp)
	}
}

// A store outage must never expire leases: expiry requires the
// store's confirmation, so an unreachable store fails renewals
// (retryable) and stalls reaping rather than killing live services.
func TestReplicaStoreOutageNeverExpires(t *testing.T) {
	store := newMemStore()
	a, clock := newTestReplica(store)
	ctx := context.Background()

	if _, err := a.register(ctx, Entry{Name: "svc", Addr: "h:1", Lease: time.Second}); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	store.fail = fmt.Errorf("quorum lost")
	store.mu.Unlock()
	clock.advance(2 * time.Second)

	_, err := a.renew(ctx, "svc", time.Second)
	if err == nil {
		t.Fatal("renewal succeeded without a store")
	}
	var nf *notFoundError
	if errors.As(err, &nf) {
		t.Fatalf("store outage reported as not-found: %v", err)
	}
	if reaped := a.sync(ctx); len(reaped) != 0 {
		t.Fatalf("sync reaped %v on local state alone", reaped)
	}
	if _, exp := a.dir.Counters(); exp != 0 {
		t.Fatalf("expirations=%d during store outage", exp)
	}
}

func TestReplicaSyncConvergence(t *testing.T) {
	store := newMemStore()
	a, _ := newTestReplica(store)
	b, _ := newTestReplica(store)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if _, err := a.register(ctx, Entry{Name: fmt.Sprintf("s%d", i), Addr: "h:1", Lease: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	// B's sync pulls in everything it never saw.
	b.sync(ctx)
	if n := b.dir.Len(); n != 5 {
		t.Fatalf("after sync len=%d", n)
	}
	// An unregister through A disappears from B on its next sync.
	if _, err := a.unregister(ctx, "s3"); err != nil {
		t.Fatal(err)
	}
	b.sync(ctx)
	if _, ok := b.dir.Peek("s3"); ok {
		t.Fatal("unregistered entry survived sync")
	}
	if _, exp := b.dir.Counters(); exp != 0 {
		t.Fatalf("sibling unregister counted as expiration: %d", exp)
	}
}

func TestReplicaUnregisterUncached(t *testing.T) {
	store := newMemStore()
	a, _ := newTestReplica(store)
	b, _ := newTestReplica(store)
	ctx := context.Background()

	if _, err := a.register(ctx, Entry{Name: "svc", Addr: "h:1", Lease: time.Minute}); err != nil {
		t.Fatal(err)
	}
	// B never cached it; unregistering through B must still report it
	// existed and remove it durably.
	existed, err := b.unregister(ctx, "svc")
	if err != nil || !existed {
		t.Fatalf("existed=%v err=%v", existed, err)
	}
	if _, _, ok, _ := store.GetContext(ctx, entryPath("svc")); ok {
		t.Fatal("still in store")
	}
	// A's memory is allowed to serve the shadow until its next sync
	// (or a directoryChanged notification, in the full service); the
	// sync pass must then drop it without counting an expiration.
	a.sync(ctx)
	if got := a.lookup(ctx, Query{Name: "svc"}); len(got) != 0 {
		t.Fatalf("A still resolves it after sync: %v", got)
	}
	if _, exp := a.dir.Counters(); exp != 0 {
		t.Fatalf("sibling unregister counted as expiration: %d", exp)
	}
}
