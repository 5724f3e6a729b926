package asd

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ace/internal/hier"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2000, 8, 21, 9, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestDir() (*Directory, *fakeClock) {
	d := NewDirectory()
	c := newFakeClock()
	d.SetClock(c.now)
	return d, c
}

func TestRegisterAndGet(t *testing.T) {
	d, _ := newTestDir()
	lease, err := d.Register(Entry{Name: "cam1", Host: "bar", Port: 1225, Addr: "bar:1225", Room: "hawk", Class: hier.ClassVCC3, Lease: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if lease != time.Second {
		t.Fatalf("lease=%v", lease)
	}
	e, ok := d.Get("cam1")
	if !ok || e.Addr != "bar:1225" || e.Room != "hawk" {
		t.Fatalf("e=%+v ok=%v", e, ok)
	}
	if _, ok := d.Get("nobody"); ok {
		t.Fatal("phantom entry")
	}
}

func TestRegisterValidation(t *testing.T) {
	d, _ := newTestDir()
	if _, err := d.Register(Entry{}); err == nil {
		t.Fatal("nameless registration accepted")
	}
	if _, err := d.Register(Entry{Name: "x", Class: "Bogus.Class"}); err == nil {
		t.Fatal("invalid class accepted")
	}
	// Empty class defaults to the root.
	if _, err := d.Register(Entry{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	e, _ := d.Get("x")
	if e.Class != hier.Root {
		t.Fatalf("class=%q", e.Class)
	}
}

func TestLeaseClamping(t *testing.T) {
	d, _ := newTestDir()
	lease, _ := d.Register(Entry{Name: "a"})
	if lease != DefaultLease {
		t.Fatalf("default lease=%v", lease)
	}
	lease, _ = d.Register(Entry{Name: "b", Lease: time.Hour})
	if lease != MaxLease {
		t.Fatalf("clamped lease=%v", lease)
	}
}

func TestLeaseExpiryAndReap(t *testing.T) {
	d, clock := newTestDir()
	d.Register(Entry{Name: "shortlived", Lease: time.Second}) //nolint:errcheck
	d.Register(Entry{Name: "longlived", Lease: time.Minute})  //nolint:errcheck

	var expired []string
	d.SetOnExpire(func(e Entry) { expired = append(expired, e.Name) })

	clock.advance(2 * time.Second)
	// Expired entries are invisible to lookups even before reaping.
	if _, ok := d.Get("shortlived"); ok {
		t.Fatal("expired entry visible")
	}
	if got := d.Lookup(Query{}); len(got) != 1 || got[0].Name != "longlived" {
		t.Fatalf("lookup=%v", got)
	}

	reaped := d.Reap()
	if len(reaped) != 1 || reaped[0].Name != "shortlived" {
		t.Fatalf("reaped=%v", reaped)
	}
	if len(expired) != 1 || expired[0] != "shortlived" {
		t.Fatalf("callback=%v", expired)
	}
	if d.Len() != 1 {
		t.Fatalf("len=%d", d.Len())
	}
}

func TestRenewExtendsLease(t *testing.T) {
	d, clock := newTestDir()
	d.Register(Entry{Name: "svc", Lease: time.Second}) //nolint:errcheck
	for i := 0; i < 5; i++ {
		clock.advance(600 * time.Millisecond)
		if _, err := d.Renew("svc", time.Second); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	e, ok := d.Get("svc")
	if !ok || e.Renewals != 5 {
		t.Fatalf("e=%+v", e)
	}

	// Renewal after expiry fails and removes the stale entry.
	clock.advance(3 * time.Second)
	if _, err := d.Renew("svc", time.Second); err == nil {
		t.Fatal("expired renewal accepted")
	}
	if _, ok := d.Get("svc"); ok {
		t.Fatal("stale entry survives failed renewal")
	}
	// Renewing an unknown name fails.
	if _, err := d.Renew("ghost", time.Second); err == nil {
		t.Fatal("ghost renewal accepted")
	}
}

func TestLookupByClassMatchesSubclasses(t *testing.T) {
	d, _ := newTestDir()
	d.Register(Entry{Name: "cam_vcc3", Class: hier.ClassVCC3, Room: "hawk"})     //nolint:errcheck
	d.Register(Entry{Name: "cam_vcc4", Class: hier.ClassVCC4, Room: "eagle"})    //nolint:errcheck
	d.Register(Entry{Name: "proj", Class: hier.ClassEpson7350, Room: "hawk"})    //nolint:errcheck
	d.Register(Entry{Name: "userdb", Class: hier.ClassDatabase, Room: "server"}) //nolint:errcheck

	if got := d.Lookup(Query{Class: hier.ClassPTZCamera}); len(got) != 2 {
		t.Fatalf("cameras=%v", got)
	}
	if got := d.Lookup(Query{Class: hier.ClassDevice}); len(got) != 3 {
		t.Fatalf("devices=%v", got)
	}
	if got := d.Lookup(Query{Class: hier.ClassDevice, Room: "hawk"}); len(got) != 2 {
		t.Fatalf("hawk devices=%v", got)
	}
	if got := d.Lookup(Query{Name: "proj"}); len(got) != 1 || got[0].Class != hier.ClassEpson7350 {
		t.Fatalf("by name=%v", got)
	}
	if got := d.Lookup(Query{Class: hier.Root}); len(got) != 4 {
		t.Fatalf("all=%v", got)
	}
	// Results are sorted by name.
	got := d.Lookup(Query{})
	for i := 1; i < len(got); i++ {
		if got[i-1].Name > got[i].Name {
			t.Fatalf("unsorted: %v", got)
		}
	}
}

func TestReRegisterReplacesEntry(t *testing.T) {
	d, _ := newTestDir()
	d.Register(Entry{Name: "svc", Addr: "old:1", Lease: time.Second}) //nolint:errcheck
	d.Register(Entry{Name: "svc", Addr: "new:2", Lease: time.Second}) //nolint:errcheck
	e, _ := d.Get("svc")
	if e.Addr != "new:2" {
		t.Fatalf("addr=%s", e.Addr)
	}
	if d.Len() != 1 {
		t.Fatalf("len=%d", d.Len())
	}
}

func TestUnregister(t *testing.T) {
	d, _ := newTestDir()
	d.Register(Entry{Name: "svc"}) //nolint:errcheck
	if !d.Unregister("svc") {
		t.Fatal("unregister existing")
	}
	if d.Unregister("svc") {
		t.Fatal("unregister twice")
	}
}

// TestQuickLeaseInvariant: under any interleaving of register/renew/
// advance operations, an entry is visible iff its last grant is newer
// than the clock.
func TestQuickLeaseInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		d, clock := newTestDir()
		// Model: name → expiry time.
		model := map[string]time.Time{}
		names := []string{"a", "b", "c"}
		for _, op := range ops {
			name := names[int(op)%len(names)]
			switch (op / 8) % 3 {
			case 0:
				d.Register(Entry{Name: name, Lease: time.Second}) //nolint:errcheck
				model[name] = clock.now().Add(time.Second)
			case 1:
				_, err := d.Renew(name, time.Second)
				exp, ok := model[name]
				alive := ok && !clock.now().After(exp)
				if alive != (err == nil) {
					return false
				}
				if err == nil {
					model[name] = clock.now().Add(time.Second)
				} else {
					delete(model, name)
				}
			case 2:
				clock.advance(time.Duration(op%16) * 100 * time.Millisecond)
			}
			// Check visibility matches the model.
			for _, n := range names {
				exp, ok := model[n]
				wantVisible := ok && !clock.now().After(exp)
				_, visible := d.Get(n)
				if visible != wantVisible {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupScalesToThousands(t *testing.T) {
	d, _ := newTestDir()
	for i := 0; i < 2000; i++ {
		d.Register(Entry{Name: fmt.Sprintf("svc%04d", i), Class: hier.ClassDevice, Lease: time.Minute}) //nolint:errcheck
	}
	if got := len(d.Lookup(Query{Class: hier.ClassDevice})); got != 2000 {
		t.Fatalf("got %d", got)
	}
	if got := d.Lookup(Query{Name: "svc1234"}); len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

// Regression: every expiration must fire the SetOnExpire callback
// exactly once, whichever path discovered the lapse (Renew, Reap, or
// Get) — the callback is what moves the asd.expirations counter and
// sends expiry notifications.
func TestExpiryCounterCallbackAgreement(t *testing.T) {
	d, c := newTestDir()
	var fired []string
	d.SetOnExpire(func(e Entry) { fired = append(fired, e.Name) })

	check := func(step string, want int) {
		t.Helper()
		if len(fired) != want {
			t.Fatalf("%s: callback fired %d times (%v), want %d", step, len(fired), fired, want)
		}
	}

	// Renew discovers the lapse.
	d.Register(Entry{Name: "a", Lease: time.Second}) //nolint:errcheck
	c.advance(2 * time.Second)
	if _, err := d.Renew("a", time.Second); err == nil {
		t.Fatal("lapsed renewal succeeded")
	}
	check("renew", 1)
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired=%v", fired)
	}

	// Reap discovers the lapse.
	d.Register(Entry{Name: "b", Lease: time.Second}) //nolint:errcheck
	c.advance(2 * time.Second)
	d.Reap()
	check("reap", 2)

	// Get filters a lapsed entry without reaping it: the callback may
	// not fire until Reap collects it.
	d.Register(Entry{Name: "c", Lease: time.Second}) //nolint:errcheck
	c.advance(2 * time.Second)
	if _, ok := d.Get("c"); ok {
		t.Fatal("lapsed entry served")
	}
	check("get", 2)
	d.Reap()
	check("reap after get", 3)
}

// The replica cache primitives never regress store versions and never
// touch the expiration counter except through Expire.
func TestReplicaCachePrimitives(t *testing.T) {
	d, c := newTestDir()
	fired := 0
	d.SetOnExpire(func(Entry) { fired++ })
	exp := func() time.Time { return c.now().Add(time.Minute) }

	if !d.Install(Entry{Name: "x", Addr: "a:1", Version: 3, Expires: exp()}) {
		t.Fatal("install rejected")
	}
	// An older version must not overwrite.
	if d.Install(Entry{Name: "x", Addr: "stale:1", Version: 2, Expires: exp()}) {
		t.Fatal("older version installed")
	}
	// Same version re-installs (read-repair idempotence).
	if !d.Install(Entry{Name: "x", Addr: "a:2", Version: 3, Expires: exp()}) {
		t.Fatal("same version rejected")
	}
	if e, _ := d.Peek("x"); e.Addr != "a:2" {
		t.Fatalf("addr=%q", e.Addr)
	}
	// Drop refuses when memory is newer than the event.
	if d.Drop("x", 2) {
		t.Fatal("drop removed a newer entry")
	}
	if !d.Drop("x", 3) {
		t.Fatal("drop refused")
	}
	if _, ok := d.Peek("x"); ok {
		t.Fatal("still present")
	}
	if fired != 0 {
		t.Fatalf("drop counted as expiration: fired=%d", fired)
	}

	// Expire is the counted, callback-firing removal.
	d.Install(Entry{Name: "y", Version: 1, Expires: exp()})
	if _, ok := d.Expire("y"); !ok {
		t.Fatal("expire missed")
	}
	if fired != 1 {
		t.Fatalf("fired=%d", fired)
	}
	// Peek sees lapsed entries that Get filters.
	d.Install(Entry{Name: "z", Version: 1, Expires: c.now().Add(-time.Second)})
	if _, ok := d.Get("z"); ok {
		t.Fatal("Get served a lapsed entry")
	}
	if _, ok := d.Peek("z"); !ok {
		t.Fatal("Peek filtered a lapsed entry")
	}
}
