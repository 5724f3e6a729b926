package daemon

import (
	"testing"
	"time"

	"ace/internal/telemetry"
)

func newTestCache(negTTL time.Duration) (*LookupCache, *time.Time) {
	c := NewLookupCache(negTTL, telemetry.NewRegistry())
	now := time.Date(2000, 8, 21, 9, 0, 0, 0, time.UTC)
	c.SetClock(func() time.Time { return now })
	return c, &now
}

func TestLookupCachePositive(t *testing.T) {
	c, _ := newTestCache(0)
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
	c, now := newTestCache(500 * time.Millisecond)
	c.PutNegative("k")
	if _, neg, ok := c.Get("k"); !ok || !neg {
		t.Fatalf("neg=%v ok=%v", neg, ok)
	}
	// Within the TTL the absence is served from the cache…
	*now = now.Add(400 * time.Millisecond)
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
	c, _ := newTestCache(0)
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
	c, _ := newTestCache(0)
	c.PutNegative("name:newcomer")
	c.PutPositive("scan:all", []string{"x"}, []string{"x:1"}, true)
	c.PutPositive("name:x", []string{"x"}, []string{"x:1"}, false)

	// A registration can satisfy any previously-empty query and can
	// join any scan's result set; exact-name positives for other
	// services are untouched.
	c.Invalidate(CmdRegister, "newcomer")
	if _, _, ok := c.Get("name:newcomer"); ok {
		t.Fatal("negative entry survived a registration")
	}
	if _, _, ok := c.Get("scan:all"); ok {
		t.Fatal("scan entry survived a registration")
	}
	if _, _, ok := c.Get("name:x"); !ok {
		t.Fatal("unrelated name entry evicted")
	}
}

func TestLookupCacheReplaceReindexes(t *testing.T) {
	c, _ := newTestCache(0)
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
