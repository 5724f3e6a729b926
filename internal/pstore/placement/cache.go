package placement

import (
	"context"
	"fmt"
	"sync"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/telemetry"
)

// ASD verbs for placement-map publication. placeset is issued by the
// coordinator; every daemon subscribed to it through the notification
// mechanism (§2.6) learns that the map changed the moment it does.
const (
	CmdPlaceSet = "placeset"
	CmdPlaceGet = "placeget"
)

// InvalidateVerb is the notification method BindInvalidation installs
// on a daemon to receive placeset events from the ASD.
const InvalidateVerb = "placementChanged"

// Cache is a client-side placement-map cache. Routing consults the
// cache on every request; the map is refetched from the ASD only when
// the cache is empty or has been invalidated — by a placeset
// notification, or reactively by a wrong_group redirect.
type Cache struct {
	pool *daemon.Pool
	asd  string

	mu    sync.Mutex
	m     *Map
	stale bool

	mFetches       *telemetry.Counter
	mInvalidations *telemetry.Counter
	mEpoch         *telemetry.Gauge
}

// NewCache builds a cache fetching the map from the ASD at asdAddr
// through pool. Cache metrics land in the pool's registry.
func NewCache(pool *daemon.Pool, asdAddr string) *Cache {
	tel := pool.Telemetry()
	return &Cache{
		pool:           pool,
		asd:            asdAddr,
		mFetches:       tel.Counter(MetricMapFetches),
		mInvalidations: tel.Counter(MetricInvalidations),
		mEpoch:         tel.Gauge(MetricEpoch),
	}
}

// Get returns the cached map without touching the network — the
// router's fast path. ok is false when the cache is empty or stale;
// the caller then pays the fetch through GetContext. Unlike the usual
// plain/Context pairs, Get is NOT a context-free convenience wrapper
// for GetContext: it deliberately never fetches.
func (c *Cache) Get() (*Map, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || c.stale {
		return c.m, false
	}
	return c.m, true
}

// GetContext returns the cached map, fetching it from the ASD first
// when the cache is empty or invalidated. A stale cache that cannot
// be refreshed (ASD unreachable) falls back to the previous map —
// routing on a possibly-outdated map is recoverable (wrong_group
// redirects correct it), not routing at all is an outage.
func (c *Cache) GetContext(ctx context.Context) (*Map, error) {
	c.mu.Lock()
	m, stale := c.m, c.stale
	c.mu.Unlock()
	if m != nil && !stale {
		return m, nil
	}
	fetched, err := c.fetch(ctx)
	if err != nil {
		if m != nil {
			return m, nil
		}
		return nil, err
	}
	return fetched, nil
}

func (c *Cache) fetch(ctx context.Context) (*Map, error) {
	reply, err := c.pool.CallContext(ctx, c.asd, cmdlang.New(CmdPlaceGet))
	if err != nil {
		return nil, fmt.Errorf("placement: fetch map: %w", err)
	}
	m, err := DecodeString(reply.Str("map", ""))
	if err != nil {
		return nil, err
	}
	c.mFetches.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent fetch may have landed a newer epoch; never go back.
	if c.m == nil || m.Epoch >= c.m.Epoch {
		c.m = m
		c.stale = false
		c.mEpoch.Set(int64(m.Epoch))
	}
	return c.m, nil
}

// Invalidate marks the cached map stale: the next GetContext
// refetches. The stale map is kept for the unreachable-ASD fallback.
func (c *Cache) Invalidate() {
	c.mInvalidations.Inc()
	c.mu.Lock()
	c.stale = true
	c.mu.Unlock()
}

// Epoch returns the cached map's epoch (0 when empty).
func (c *Cache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return 0
	}
	return c.m.Epoch
}

// HandleInvalidation installs the notification method that marks the
// cache stale when the ASD's placement map changes. Call before the
// daemon starts (handlers are fixed at start).
func (c *Cache) HandleInvalidation(d *daemon.Daemon) {
	d.Handle(cmdlang.CommandSpec{
		Name: InvalidateVerb,
		Doc:  "placement-map change notification from the ASD",
		Args: []cmdlang.ArgSpec{
			{Name: daemon.NotifySourceArg, Kind: cmdlang.KindWord},
			{Name: daemon.NotifyEventArg, Kind: cmdlang.KindWord},
			{Name: daemon.NotifyDetailArg, Kind: cmdlang.KindString},
		},
	}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		c.Invalidate()
		return cmdlang.OK(), nil
	})
}

// SubscribeInvalidation registers the started daemon with the ASD's
// notification list for placeset, completing what HandleInvalidation
// began: from here on, publishing a new map invalidates this cache
// within one notification delivery instead of one wrong_group
// round-trip.
func (c *Cache) SubscribeInvalidation(d *daemon.Daemon) error {
	return daemon.Subscribe(c.pool, c.asd, CmdPlaceSet, d.Name(), d.Addr(), InvalidateVerb)
}
