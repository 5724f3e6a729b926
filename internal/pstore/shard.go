package pstore

import (
	"context"
	"sort"
	"sync"
	"time"

	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore/placement"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
)

// shardRetries bounds how many times a sharded operation re-routes
// after a wrong_group redirect before giving up. Each retry refetches
// the placement map, so more than a couple means the ASD itself is
// serving a map the nodes disagree with.
const shardRetries = 3

// Sharded routes store operations across replica groups using a
// cached placement map: hash the path to its partition, send the
// operation to the owning group's quorum client stamped with the
// map's epoch. A wrong_group redirect invalidates the cache, refetches
// the map, and re-routes — the client needs no a-priori knowledge of
// the topology, only the ASD address.
//
// During a live rebalance, writes to a moving partition dual-apply:
// one stamp is quorum-written to the source group (still the owner)
// and the destination group, so an acked write survives even if the
// move's transfer already passed its path. Reads route to the
// source only — the destination may not hold history yet.
type Sharded struct {
	pool  *daemon.Pool
	cache *placement.Cache

	// Group clients are built per map epoch and keyed by group name;
	// an epoch change retires the whole set (kept only so Close can
	// drain their background work).
	mu      sync.Mutex
	epoch   uint64
	clients map[string]*Client
	retired []*Client

	// One clock and one lease table span every group client the router
	// ever builds. Leases are reset on an epoch change — a holder set
	// recorded under the old map may no longer serve the path.
	clock  *hlc.Clock
	leases *staleness.Leases

	mRedirects  *telemetry.Counter
	mDualWrites *telemetry.Counter
}

// NewSharded builds a sharded client routing by cache's placement map
// and dialing through pool. Metrics land in the pool's registry.
func NewSharded(pool *daemon.Pool, cache *placement.Cache) *Sharded {
	tel := pool.Telemetry()
	return &Sharded{
		pool:        pool,
		cache:       cache,
		clients:     make(map[string]*Client),
		clock:       hlc.New(nil, 0, tel),
		leases:      staleness.NewLeases(0, nil),
		mRedirects:  tel.Counter(placement.MetricRedirects),
		mDualWrites: tel.Counter(placement.MetricDualWrites),
	}
}

// Close drains the background work of every group client this router
// ever built. Close before closing the pool.
func (s *Sharded) Close() {
	s.mu.Lock()
	all := append([]*Client(nil), s.retired...)
	for _, cl := range s.clients {
		all = append(all, cl)
	}
	s.mu.Unlock()
	for _, cl := range all {
		cl.Close()
	}
}

// client returns (building if needed) the epoch-stamped quorum client
// for group index gi of map m.
func (s *Sharded) client(m *placement.Map, gi int) *Client {
	g := m.Groups[gi]
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Epoch != s.epoch {
		for _, cl := range s.clients {
			s.retired = append(s.retired, cl)
		}
		s.clients = make(map[string]*Client)
		s.epoch = m.Epoch
		// Freshness proofs don't survive a rebalance: lease holder sets
		// were recorded against the old assignment.
		s.leases.Reset()
	}
	cl, ok := s.clients[g.Name]
	if !ok {
		cl = NewGroupClient(s.pool, g.Replicas, m.Epoch)
		// Share the router-wide staleness machinery (see the field doc).
		cl.clock, cl.leases = s.clock, s.leases
		s.clients[g.Name] = cl
	}
	return cl
}

// route resolves path to its owning group's client under the current
// map, plus the move destination's client when the partition is mid
// -rebalance (nil otherwise).
func (s *Sharded) route(ctx context.Context, path string) (owner, dest *Client, err error) {
	m, ok := s.cache.Get()
	if !ok {
		if m, err = s.cache.GetContext(ctx); err != nil {
			return nil, nil, err
		}
	}
	p := placement.PartitionOf(path, m.Partitions)
	if mv := m.MoveFor(p); mv != nil {
		dest = s.client(m, mv.To)
	}
	return s.client(m, m.Assignment[p]), dest, nil
}

// retry runs op, re-routing (invalidate, refetch, rebuild clients)
// after each wrong_group redirect, up to shardRetries times.
func (s *Sharded) retry(op func() error) error {
	var err error
	for attempt := 0; attempt <= shardRetries; attempt++ {
		if err = op(); !IsWrongGroup(err) {
			return err
		}
		s.mRedirects.Inc()
		s.cache.Invalidate()
	}
	return err
}

// GetContext quorum-reads path from its owning group.
func (s *Sharded) GetContext(ctx context.Context, path string) (value []byte, version uint64, ok bool, err error) {
	err = s.retry(func() error {
		owner, _, rerr := s.route(ctx, path)
		if rerr != nil {
			return rerr
		}
		value, version, ok, rerr = owner.GetContext(ctx, path)
		return rerr
	})
	return value, version, ok, err
}

// Get is GetContext without a deadline.
func (s *Sharded) Get(path string) ([]byte, uint64, bool, error) {
	return s.GetContext(context.Background(), path)
}

// GetBoundedContext reads path from its owning group with staleness at
// most bound (see Client.GetBoundedContext). The read still routes by
// the placement map — only the intra-group read policy changes — and a
// wrong_group redirect re-routes exactly like a quorum read.
func (s *Sharded) GetBoundedContext(ctx context.Context, path string, bound time.Duration) (value []byte, version uint64, ok bool, err error) {
	err = s.retry(func() error {
		owner, _, rerr := s.route(ctx, path)
		if rerr != nil {
			return rerr
		}
		value, version, ok, rerr = owner.GetBoundedContext(ctx, path, bound)
		return rerr
	})
	return value, version, ok, err
}

// PutContext quorum-writes value at path. If the partition is moving,
// the write dual-applies: it is stamped once and that version is
// quorum-written to source AND destination (Client.writeRound). That
// is what makes an acked write survive a destination-group crash (the
// source still has it) and a source cutover (the destination already
// has it).
func (s *Sharded) PutContext(ctx context.Context, path string, value []byte) (version uint64, err error) {
	err = s.retry(func() error {
		owner, dest, rerr := s.routeWrite(ctx, path)
		if rerr == nil {
			version, rerr = owner.put(ctx, path, value, dest)
		}
		return rerr
	})
	return version, err
}

// Put is PutContext without a deadline.
func (s *Sharded) Put(path string, value []byte) (uint64, error) {
	return s.PutContext(context.Background(), path, value)
}

// DeleteContext writes a tombstone at path (dual-applied while the
// partition is moving, like PutContext).
func (s *Sharded) DeleteContext(ctx context.Context, path string) error {
	return s.retry(func() error {
		owner, dest, rerr := s.routeWrite(ctx, path)
		if rerr == nil {
			rerr = owner.del(ctx, path, dest)
		}
		return rerr
	})
}

// Delete is DeleteContext without a deadline.
func (s *Sharded) Delete(path string) error {
	return s.DeleteContext(context.Background(), path)
}

// routeWrite is route for a write, counting the dual-applied ones.
func (s *Sharded) routeWrite(ctx context.Context, path string) (owner, dest *Client, err error) {
	if owner, dest, err = s.route(ctx, path); dest != nil {
		s.mDualWrites.Inc()
	}
	return owner, dest, err
}

// ListContext unions live paths under prefix across every group. Each
// group lists only the partitions it owns under its installed map, so
// the union has no duplicates to reconcile beyond set semantics.
func (s *Sharded) ListContext(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	err := s.retry(func() error {
		m, ok := s.cache.Get()
		if !ok {
			var rerr error
			if m, rerr = s.cache.GetContext(ctx); rerr != nil {
				return rerr
			}
		}
		set := map[string]bool{}
		for gi := range m.Groups {
			paths, rerr := s.client(m, gi).ListContext(ctx, prefix)
			if rerr != nil {
				return rerr
			}
			for _, p := range paths {
				set[p] = true
			}
		}
		out = make([]string, 0, len(set))
		for p := range set {
			out = append(out, p)
		}
		sort.Strings(out)
		return nil
	})
	return out, err
}

// List is ListContext without a deadline.
func (s *Sharded) List(prefix string) ([]string, error) {
	return s.ListContext(context.Background(), prefix)
}

// Epoch returns the epoch of the map the router is currently routing
// by (0 before the first fetch).
func (s *Sharded) Epoch() uint64 { return s.cache.Epoch() }
