package daemon

import (
	"testing"
	"time"

	"ace/internal/telemetry"
)

func newTestCache() (*LookupCache, *time.Time) {
	c := NewLookupCache(telemetry.NewRegistry())
	now := time.Date(2000, 8, 21, 9, 0, 0, 0, time.UTC)
	c.SetClock(func() time.Time { return now })
	return c, &now
}

func TestLookupCachePositive(t *testing.T) {
	c, _ := newTestCache()
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutPositive("k", []string{"svc"}, []string{"h:1"}, false)
	addrs, neg, ok := c.Get("k")
	if !ok || neg || len(addrs) != 1 || addrs[0] != "h:1" {
		t.Fatalf("addrs=%v neg=%v ok=%v", addrs, neg, ok)
	}
	if c.hits.Value() != 1 || c.misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d", c.hits.Value(), c.misses.Value())
	}
}

func TestLookupCacheNegativeTTL(t *testing.T) {
	c, now := newTestCache()
	c.PutNegative("k")
	if _, neg, ok := c.Get("k"); !ok || !neg {
		t.Fatalf("neg=%v ok=%v", neg, ok)
	}
	// Within the TTL the absence is served from the cache…
	*now = now.Add(negativeTTL - 100*time.Millisecond)
	if _, neg, ok := c.Get("k"); !ok || !neg {
		t.Fatal("negative entry gone before TTL")
	}
	// …after it, the entry ages out so a late registration becomes
	// visible even if its notification was lost.
	*now = now.Add(200 * time.Millisecond)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("negative entry survived its TTL")
	}
	if c.negHits.Value() != 2 {
		t.Fatalf("negHits=%d", c.negHits.Value())
	}
}

func TestLookupCacheInvalidateByName(t *testing.T) {
	c, _ := newTestCache()
	c.PutPositive("name:a", []string{"a"}, []string{"a:1"}, false)
	c.PutPositive("name:b", []string{"b"}, []string{"b:1"}, false)
	c.PutPositive("scan:cams", []string{"a", "b"}, []string{"a:1", "b:1"}, true)

	// An event about "a" evicts its name query and the scan whose
	// answer included it; "b" stays warm.
	c.Invalidate(CmdUnregister, "a")
	if _, _, ok := c.Get("name:a"); ok {
		t.Fatal("stale name entry survived")
	}
	if _, _, ok := c.Get("scan:cams"); ok {
		t.Fatal("stale scan entry survived")
	}
	if _, _, ok := c.Get("name:b"); !ok {
		t.Fatal("unrelated entry evicted")
	}
}

func TestLookupCacheRegisterFlushesNegativesAndScans(t *testing.T) {
	c, _ := newTestCache()
	c.PutNegative("name:newcomer")
	c.PutNegative("name:other")
	c.PutPositive("scan:all", []string{"x"}, []string{"x:1"}, true)
	c.PutPositive("scan:room", []string{"x"}, []string{"x:1"}, true)
	c.PutPositive("name:x", []string{"x"}, []string{"x:1"}, false)
	// A query that found nothing and then a service is a positive entry:
	// a registration elsewhere leaves it be.
	c.PutNegative("name:y")
	c.PutPositive("name:y", []string{"y"}, []string{"y:1"}, false)

	// A registration can satisfy any previously-empty query and can
	// join any scan's result set; exact-name positives for other
	// services are untouched.
	c.Invalidate(CmdRegister, "newcomer")
	for _, key := range []string{"name:newcomer", "name:other", "scan:all", "scan:room"} {
		if _, _, ok := c.Get(key); ok {
			t.Fatalf("%s survived a registration", key)
		}
	}
	for _, key := range []string{"name:x", "name:y"} {
		if _, _, ok := c.Get(key); !ok {
			t.Fatalf("unrelated name entry %s evicted", key)
		}
	}
	if n := c.evicts.Value(); n != 4 {
		t.Fatalf("%d evictions, want the 4 negative and scan entries", n)
	}
	// A second registration finds nothing more to flush.
	c.Invalidate(CmdRegister, "later")
	if n := c.evicts.Value(); n != 4 {
		t.Fatalf("%d evictions after a second registration, want still 4", n)
	}
}

func TestLookupCacheReplaceReindexes(t *testing.T) {
	c, _ := newTestCache()
	c.PutPositive("k", []string{"old"}, []string{"old:1"}, false)
	c.PutPositive("k", []string{"new"}, []string{"new:1"}, false)
	// The stale index entry must not linger: an event about "old"
	// no longer concerns key k…
	c.Invalidate(CmdUnregister, "old")
	if _, _, ok := c.Get("k"); !ok {
		t.Fatal("entry evicted via a stale name index")
	}
	// …but one about "new" does.
	c.Invalidate(CmdUnregister, "new")
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("entry survived its own name event")
	}
}
