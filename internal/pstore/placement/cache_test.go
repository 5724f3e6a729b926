// Cache tests live in an external test package: they exercise the
// cache against a real ASD, and asd imports placement (the verbs and
// map codec), so an internal test would be an import cycle.
package placement_test

import (
	"context"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore/placement"
)

func testGroups(names ...string) []placement.Group {
	out := make([]placement.Group, len(names))
	for i, n := range names {
		out[i] = placement.Group{Name: n, Replicas: []string{n + "-a:1", n + "-b:1", n + "-c:1"}}
	}
	return out
}

func startASD(t *testing.T) *asd.Service {
	t.Helper()
	s := asd.New(asd.Config{ReapInterval: time.Hour})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func publish(t *testing.T, pool *daemon.Pool, addr string, m *placement.Map) {
	t.Helper()
	if _, err := pool.Call(addr, cmdlang.New(placement.CmdPlaceSet).SetString("map", m.EncodeString())); err != nil {
		t.Fatalf("placeset: %v", err)
	}
}

func TestCachePublishAndFetch(t *testing.T) {
	s := startASD(t)
	pool := daemon.NewPool(nil)
	defer pool.Close()

	c := placement.NewCache(pool, s.Addr())
	if _, ok := c.Get(); ok {
		t.Fatal("empty cache claimed a valid map")
	}
	if _, err := c.GetContext(context.Background()); err == nil {
		t.Fatal("GetContext succeeded before any map was published")
	}

	m := placement.NewMap(7, 32, 16, testGroups("g1", "g2"))
	publish(t, pool, s.Addr(), m)

	got, err := c.GetContext(context.Background())
	if err != nil {
		t.Fatalf("GetContext: %v", err)
	}
	if got.Epoch != 1 || len(got.Groups) != 2 {
		t.Fatalf("fetched map epoch=%d groups=%d", got.Epoch, len(got.Groups))
	}
	// Now cached: the fast path serves without the network.
	if cached, ok := c.Get(); !ok || cached.Epoch != 1 {
		t.Fatalf("fast path miss after fetch: ok=%v", ok)
	}
	if s.Placement() == nil || s.Placement().Epoch != 1 {
		t.Fatal("ASD did not retain the published map")
	}
}

func TestPlaceSetEpochNeverRegresses(t *testing.T) {
	s := startASD(t)
	pool := daemon.NewPool(nil)
	defer pool.Close()

	m := placement.NewMap(7, 32, 16, testGroups("g1", "g2"))
	m.Epoch = 5
	for i := range m.Stamp {
		m.Stamp[i] = 5
	}
	publish(t, pool, s.Addr(), m)

	old := placement.NewMap(7, 32, 16, testGroups("g1", "g2")) // epoch 1
	_, err := pool.Call(s.Addr(), cmdlang.New(placement.CmdPlaceSet).SetString("map", old.EncodeString()))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeConflict) {
		t.Fatalf("stale placeset err=%v, want conflict", err)
	}
	if s.Placement().Epoch != 5 {
		t.Fatalf("published epoch regressed to %d", s.Placement().Epoch)
	}
}

// The §2.6 path: a daemon subscribed to placeset hears about a new map
// and invalidates its cache, so the next routed request refetches —
// no polling, no waiting for a wrong_group redirect.
func TestCacheInvalidatedByNotification(t *testing.T) {
	s := startASD(t)
	pool := daemon.NewPool(nil)
	defer pool.Close()

	publish(t, pool, s.Addr(), placement.NewMap(7, 32, 16, testGroups("g1", "g2")))

	c := placement.NewCache(pool, s.Addr())
	sub := daemon.New(daemon.Config{Name: "cachetest_sub"})
	c.HandleInvalidation(sub)
	if err := sub.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Stop)
	if err := c.SubscribeInvalidation(sub); err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	if _, err := c.GetContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(); !ok {
		t.Fatal("cache not primed")
	}

	next := placement.NewMap(7, 32, 16, testGroups("g1", "g2", "g3"))
	next.Epoch = 2
	for i := range next.Stamp {
		next.Stamp[i] = 1
	}
	publish(t, pool, s.Addr(), next)

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := c.Get(); !ok {
			break // invalidation delivered
		}
		if time.Now().After(deadline) {
			t.Fatal("placeset notification never invalidated the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := c.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 || len(got.Groups) != 3 {
		t.Fatalf("refetched map epoch=%d groups=%d, want 2/3", got.Epoch, len(got.Groups))
	}
}

// Routing on a possibly-outdated map beats not routing at all: with
// the ASD down, a stale cache keeps serving its last map.
func TestCacheServesStaleWhenASDUnreachable(t *testing.T) {
	// Stopped mid-test, so no t.Cleanup via startASD (Stop is not
	// idempotent).
	s := asd.New(asd.Config{ReapInterval: time.Hour})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	pool := daemon.NewPool(nil)
	defer pool.Close()

	publish(t, pool, s.Addr(), placement.NewMap(7, 32, 16, testGroups("g1", "g2")))
	c := placement.NewCache(pool, s.Addr())
	if _, err := c.GetContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	s.Stop()
	c.Invalidate()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	got, err := c.GetContext(ctx)
	if err != nil {
		t.Fatalf("stale fallback failed: %v", err)
	}
	if got.Epoch != 1 {
		t.Fatalf("fallback map epoch=%d", got.Epoch)
	}
}
