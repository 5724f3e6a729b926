package daemon

import (
	"sync"
	"time"

	"ace/internal/telemetry"
)

// LookupCache is the client-edge service-discovery cache attached to
// every Pool. Directory clients (asd.Client) consult it before
// calling the directory, so a lookup storm for a warm name never
// leaves the process.
//
// Coherence is event-driven for positive entries and TTL-driven for
// negative ones:
//
//   - a positive entry (query → resolved addresses) lives until a
//     directory change notification (§2.6 register/unregister/expired
//     events) evicts it;
//   - a negative entry (query → "no matching service") expires on a
//     short TTL, so discovery storms for absent services are absorbed
//     here while a late registration still becomes visible within one
//     TTL even if its notification was dropped.
//
// Every positive entry indexes the service names it resolved, so one
// event about a name evicts exactly the queries whose answers could
// have changed. A register event additionally flushes all negative
// and scan entries: the newcomer may now satisfy any query that
// previously found nothing or scanned by class/room.
type LookupCache struct {
	mu      sync.Mutex
	entries map[string]*lookupEntry
	byName  map[string]map[string]struct{} // service name → cache keys
	now     func() time.Time

	hits    *telemetry.Counter
	misses  *telemetry.Counter
	negHits *telemetry.Counter
	invals  *telemetry.Counter
	evicts  *telemetry.Counter
}

type lookupEntry struct {
	addrs    []string
	names    []string
	negative bool
	scan     bool      // query was not keyed by one name
	expires  time.Time // zero for a positive entry: eviction-driven, no TTL
}

// negativeTTL bounds how long an absent service stays absent in a
// client's cache after it finally registers (when the register
// notification is dropped or the client is not subscribed).
const negativeTTL = time.Second

// Lookup-cache metric names (recorded into the pool's registry).
const (
	// MetricLookupCacheHits counts directory lookups answered from the
	// client-side cache.
	MetricLookupCacheHits = "asd.cache.hits"
	// MetricLookupCacheMisses counts directory lookups that had to
	// call the directory.
	MetricLookupCacheMisses = "asd.cache.misses"
	// MetricLookupCacheNegativeHits counts lookups answered "not
	// found" from a cached negative entry.
	MetricLookupCacheNegativeHits = "asd.cache.negative_hits"
	// MetricLookupCacheInvalidations counts directory change events
	// applied to the cache.
	MetricLookupCacheInvalidations = "asd.cache.invalidations"
	// MetricLookupCacheEvictions counts cache entries removed by
	// invalidation events or TTL expiry.
	MetricLookupCacheEvictions = "asd.cache.evictions"
)

// NewLookupCache builds a cache. Negative entries live for
// negativeTTL; positive entries live until an event evicts them.
func NewLookupCache(tel *telemetry.Registry) *LookupCache {
	return &LookupCache{
		entries: make(map[string]*lookupEntry),
		byName:  make(map[string]map[string]struct{}),
		now:     time.Now,
		hits:    tel.Counter(MetricLookupCacheHits),
		misses:  tel.Counter(MetricLookupCacheMisses),
		negHits: tel.Counter(MetricLookupCacheNegativeHits),
		invals:  tel.Counter(MetricLookupCacheInvalidations),
		evicts:  tel.Counter(MetricLookupCacheEvictions),
	}
}

// SetClock injects a time source (tests).
func (c *LookupCache) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// Get returns the cached answer for the query key. negative reports a
// cached "no matching service"; ok is false on a miss (including an
// entry that aged out). The returned slice is shared — callers must
// not modify it.
func (c *LookupCache) Get(key string) (addrs []string, negative, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, present := c.entries[key]
	if !present {
		c.misses.Inc()
		return nil, false, false
	}
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(key, e)
		c.evicts.Inc()
		c.misses.Inc()
		return nil, false, false
	}
	if e.negative {
		c.negHits.Inc()
		return nil, true, true
	}
	c.hits.Inc()
	return e.addrs, false, true
}

// PutPositive records a resolved query: the addresses it returned and
// the service names behind them (which index the entry for event
// eviction). scan marks queries not keyed by a single name.
func (c *LookupCache) PutPositive(key string, names, addrs []string, scan bool) {
	e := &lookupEntry{addrs: addrs, names: names, scan: scan}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.removeLocked(key, old)
	}
	c.entries[key] = e
	for _, n := range names {
		keys, ok := c.byName[n]
		if !ok {
			keys = make(map[string]struct{})
			c.byName[n] = keys
		}
		keys[key] = struct{}{}
	}
}

// PutNegative records a "no matching service" answer under the
// negative TTL.
func (c *LookupCache) PutNegative(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.removeLocked(key, old)
	}
	c.entries[key] = &lookupEntry{negative: true, expires: c.now().Add(negativeTTL)}
}

// Invalidate applies one directory change event. name is the service
// the event concerns; event is the directory verb that fired
// (register, unregister, expired — CmdRegister et al.).
func (c *LookupCache) Invalidate(event, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invals.Inc()
	evicted := 0
	// Every query whose answer mentioned this name could have changed
	// (a re-register moves the address; an expiry removes it).
	for key := range c.byName[name] {
		if e, ok := c.entries[key]; ok {
			c.removeLocked(key, e)
			evicted++
		}
	}
	if event == CmdRegister {
		// A newcomer can satisfy queries that previously found nothing
		// and can join any class/room scan's result set.
		for key, e := range c.entries {
			if e.negative || e.scan {
				c.removeLocked(key, e)
				evicted++
			}
		}
	}
	c.evicts.Add(int64(evicted))
}

// removeLocked unlinks an entry and its name index. Callers hold mu.
func (c *LookupCache) removeLocked(key string, e *lookupEntry) {
	delete(c.entries, key)
	for _, n := range e.names {
		if keys, ok := c.byName[n]; ok {
			delete(keys, key)
			if len(keys) == 0 {
				delete(c.byName, n)
			}
		}
	}
}

// Len returns the number of cached entries (positive and negative).
func (c *LookupCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
