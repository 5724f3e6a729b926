package asd

import (
	"context"
	"errors"
	"sync"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
	"ace/internal/telemetry"
)

// ServiceName is the conventional instance name of the directory
// daemon.
const ServiceName = "asd"

// CmdExpired is the lease-expiry event verb. The directory executes
// it through its own dispatch path for every confirmed expiration, so
// §2.6 subscribers to "expired" hear about reaped services the same
// way register/unregister subscribers hear about live ones. The
// handler itself is a no-op — the command exists for its notification
// side effect.
const CmdExpired = "expired"

// Service is the ACE Service Directory daemon: the Directory wrapped
// in the standard daemon shell and exposed through ACE commands.
type Service struct {
	*daemon.Daemon
	dir       *Directory
	reapEvery time.Duration
	// reapCtx ends the reap loop and whatever store sync it has in
	// flight; reapWG lets Stop wait for the loop to have exited.
	reapCtx  context.Context
	stopReap context.CancelFunc
	reapWG   sync.WaitGroup

	// rep is the store-backed replica layer; nil in standalone
	// (single in-memory directory) mode.
	rep *replica

	mRegistrations *telemetry.Counter
	mRenewals      *telemetry.Counter
	mLookupLatency *telemetry.Histogram
}

// Config tailors the directory daemon.
type Config struct {
	// Daemon is the underlying shell configuration. ASDAddr is
	// ignored — the directory never registers with itself.
	Daemon daemon.Config
	// ReapInterval is how often expired leases are collected. In
	// replicated mode it is also the store sync cadence, which bounds
	// the staleness of scan lookups served from this replica's memory.
	ReapInterval time.Duration
	// Store, when set, replicates the directory over the persistent
	// store: every registration, and every renewal that must move the
	// durable deadline, is quorum-written before it is acked, and any
	// directory daemon backed by the same store serves the same
	// entries. Nil keeps the standalone in-memory directory.
	Store Store
}

// storeTimeout bounds each store operation issued on behalf of one
// command or one reap.
const storeTimeout = 2 * time.Second

// New constructs the directory service.
func New(cfg Config) *Service {
	dcfg := cfg.Daemon
	dcfg.ASDAddr = "" // the ASD is the well-known root; it has no directory above it
	dcfg.ASDAddrs = nil
	if dcfg.Name == "" {
		dcfg.Name = ServiceName
	}
	if dcfg.Class == "" {
		dcfg.Class = hier.ClassServiceDirectory
	}
	if cfg.ReapInterval <= 0 {
		cfg.ReapInterval = 250 * time.Millisecond
	}
	s := &Service{
		Daemon:    daemon.New(dcfg),
		dir:       NewDirectory(),
		reapEvery: cfg.ReapInterval,
	}
	s.reapCtx, s.stopReap = context.WithCancel(context.Background())
	tel := s.Telemetry()
	if cfg.Store != nil {
		s.rep = newReplica(s.dir, cfg.Store, tel)
	}
	s.mRegistrations = tel.Counter(MetricRegistrations)
	s.mRenewals = tel.Counter(MetricRenewals)
	s.mLookupLatency = tel.Histogram(MetricLookupLatency)
	expirations := tel.Counter(MetricExpirations)
	s.dir.SetOnExpire(func(Entry) { expirations.Inc() })
	s.install()
	return s
}

// Directory exposes the underlying listing, read-mostly: the
// environment's service tree (core.Environment.ServiceTree) walks it.
func (s *Service) Directory() *Directory { return s.dir }

// Start brings the daemon online and starts the lease reaper.
func (s *Service) Start() error {
	if err := s.Daemon.Start(); err != nil {
		return err
	}
	s.reapWG.Add(1)
	go s.reapLoop()
	return nil
}

// Stop halts the reaper and the daemon, and returns once the reaper
// has exited: nothing of this service touches its Store afterwards, so
// the caller may close the store client next. Safe to call more than
// once (chaos drills kill daemons that deferred cleanups stop again).
func (s *Service) Stop() {
	s.stopReap()
	s.reapWG.Wait()
	s.Daemon.Stop()
}

func (s *Service) reapLoop() {
	defer s.reapWG.Done()
	t := time.NewTicker(s.reapEvery)
	defer t.Stop()
	for {
		select {
		case <-s.reapCtx.Done():
			return
		case <-t.C:
			var reaped []Entry
			if s.rep != nil {
				// Replicated: the reap pass is a store sync — expiry is
				// confirmed against the durable deadline, never local
				// state alone, and entries registered through sibling
				// replicas are pulled in.
				ctx, cancel := context.WithTimeout(s.reapCtx, storeTimeout)
				reaped = s.rep.sync(ctx)
				cancel()
			} else {
				reaped = s.dir.Reap()
			}
			for _, e := range reaped {
				// Executing the expired verb through the daemon's own
				// dispatch path is what fires the §2.6 notifications to
				// expired-subscribers (lookup-cache eviction rides it).
				s.ExecuteLocal(nil, cmdlang.New(CmdExpired).
					SetWord("name", e.Name).SetString("addr", e.Addr))
			}
		}
	}
}

// lookupReply renders a lookup result set (or its not-found failure).
func lookupReply(entries []Entry, limit int) *cmdlang.CmdLine {
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	if len(entries) == 0 {
		return cmdlang.Fail(cmdlang.CodeNotFound, "no matching service")
	}
	names := make([]string, len(entries))
	addrs := make([]string, len(entries))
	rooms := make([]string, len(entries))
	classes := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
		addrs[i] = e.Addr
		rooms[i] = e.Room
		classes[i] = e.Class
	}
	reply := entryReply(entries[0])
	reply.Set("names", cmdlang.WordVector(names...))
	reply.Set("addrs", cmdlang.StringVector(addrs...))
	reply.Set("rooms", cmdlang.WordVector(rooms...))
	reply.Set("classes", cmdlang.StringVector(classes...))
	reply.SetInt("count", int64(len(entries)))
	return reply
}

// replicaFail maps a replica-layer error to its return command:
// client-fixable not-found failures keep the standalone directory's
// code, store trouble is a retryable unavailable.
func replicaFail(err error) *cmdlang.CmdLine {
	var nf *notFoundError
	if errors.As(err, &nf) {
		return cmdlang.Fail(cmdlang.CodeNotFound, err.Error())
	}
	return cmdlang.Fail(cmdlang.CodeUnavailable, err.Error())
}

// detachStore runs work — a handler continuation ending in one or
// more quorum store rounds — out of the daemon's serial section when
// the invocation can detach and a pipeline slot is free, so concurrent
// writes (registrations, and renewals that must move the durable
// deadline) overlap their store fan-outs instead of serializing behind
// one another. A renewal answered from memory never gets here. With no
// free slot the work runs inline, holding the section, which is the
// natural backpressure; ExecuteLocal invocations (which cannot detach)
// also run inline. The returned reply is nil exactly when the
// invocation detached (the daemon discards it).
func (s *Service) detachStore(hctx *daemon.Ctx, work func(ctx context.Context) *cmdlang.CmdLine) *cmdlang.CmdLine {
	finish, ok := hctx.Detach()
	if !ok {
		ctx, cancel := context.WithTimeout(hctx.TraceContext(), storeTimeout)
		defer cancel()
		return work(ctx)
	}
	select {
	case s.rep.storeSem <- struct{}{}:
		tctx := hctx.TraceContext()
		go func() {
			defer func() { <-s.rep.storeSem }()
			ctx, cancel := context.WithTimeout(tctx, storeTimeout)
			defer cancel()
			finish.Finish(work(ctx))
		}()
	default:
		ctx, cancel := context.WithTimeout(hctx.TraceContext(), storeTimeout)
		finish.Finish(work(ctx))
		cancel()
	}
	return nil
}

// renew is the renew verb's handler. On a replicated directory a
// renewal the deadline in memory already covers is answered inline,
// without detaching, a goroutine or a storeSem slot; any other
// detaches to replica.renew.
func (s *Service) renew(hctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	name := c.Str("name", "")
	lease := time.Duration(c.Int("lease", 0)) * time.Millisecond
	if s.rep == nil {
		granted, err := s.dir.Renew(name, lease)
		if err != nil {
			return cmdlang.Fail(cmdlang.CodeNotFound, err.Error()), nil
		}
		s.mRenewals.Inc()
		return leaseReply(granted), nil
	}
	if granted, ok := s.rep.renewHeld(name, lease); ok {
		s.mRenewals.Inc()
		return leaseReply(granted), nil
	}
	return s.detachStore(hctx, func(ctx context.Context) *cmdlang.CmdLine {
		granted, err := s.rep.renew(ctx, name, lease)
		if err != nil {
			return replicaFail(err)
		}
		s.mRenewals.Inc()
		return leaseReply(granted)
	}), nil
}

// leaseReply acks a registration or renewal with the lease granted.
func leaseReply(granted time.Duration) *cmdlang.CmdLine {
	return cmdlang.OK().SetInt("lease", int64(granted/time.Millisecond))
}

func entryReply(e Entry) *cmdlang.CmdLine {
	return cmdlang.OK().
		SetWord("name", e.Name).
		SetWord("host", e.Host).
		SetInt("port", int64(e.Port)).
		SetString("addr", e.Addr).
		SetWord("room", e.Room).
		SetString("class", e.Class).
		SetInt("lease", int64(e.Lease/time.Millisecond))
}

func (s *Service) install() {
	s.Handle(cmdlang.CommandSpec{
		Name: daemon.CmdRegister,
		Doc:  "enter the service directory with a lease",
		Args: []cmdlang.ArgSpec{
			{Name: "name", Kind: cmdlang.KindWord, Required: true},
			{Name: "host", Kind: cmdlang.KindWord, Required: true},
			{Name: "port", Kind: cmdlang.KindInt, Required: true},
			{Name: "addr", Kind: cmdlang.KindString, Required: true},
			{Name: "room", Kind: cmdlang.KindWord},
			{Name: "class", Kind: cmdlang.KindString},
			{Name: "lease", Kind: cmdlang.KindInt, Doc: "milliseconds"},
		},
	}, func(hctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		e := Entry{
			Name:  c.Str("name", ""),
			Host:  c.Str("host", ""),
			Port:  int(c.Int("port", 0)),
			Addr:  c.Str("addr", ""),
			Room:  c.Str("room", ""),
			Class: c.Str("class", hier.Root),
			Lease: time.Duration(c.Int("lease", 0)) * time.Millisecond,
		}
		if s.rep == nil {
			lease, err := s.dir.Register(e)
			if err != nil {
				return nil, err
			}
			s.mRegistrations.Inc()
			return leaseReply(lease), nil
		}
		return s.detachStore(hctx, func(ctx context.Context) *cmdlang.CmdLine {
			lease, err := s.rep.register(ctx, e)
			if err != nil {
				return replicaFail(err)
			}
			s.mRegistrations.Inc()
			return leaseReply(lease)
		}), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: daemon.CmdRenew,
		Doc:  "renew a service lease",
		Args: []cmdlang.ArgSpec{
			{Name: "name", Kind: cmdlang.KindWord, Required: true},
			{Name: "lease", Kind: cmdlang.KindInt},
		},
	}, s.renew)

	s.Handle(cmdlang.CommandSpec{
		Name: daemon.CmdUnregister,
		Doc:  "leave the directory",
		Args: []cmdlang.ArgSpec{{Name: "name", Kind: cmdlang.KindWord, Required: true}},
	}, func(hctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		name := c.Str("name", "")
		if s.rep == nil {
			return cmdlang.OK().SetBool("existed", s.dir.Unregister(name)), nil
		}
		return s.detachStore(hctx, func(ctx context.Context) *cmdlang.CmdLine {
			existed, err := s.rep.unregister(ctx, name)
			if err != nil {
				return replicaFail(err)
			}
			return cmdlang.OK().SetBool("existed", existed)
		}), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: daemon.CmdLookup,
		Doc:  "find services by name, class, and/or room (Fig 7)",
		Args: []cmdlang.ArgSpec{
			{Name: "name", Kind: cmdlang.KindWord},
			{Name: "class", Kind: cmdlang.KindString},
			{Name: "room", Kind: cmdlang.KindWord},
			{Name: "limit", Kind: cmdlang.KindInt},
		},
	}, func(hctx *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		q := Query{
			Name:  c.Str("name", ""),
			Class: c.Str("class", ""),
			Room:  c.Str("room", ""),
		}
		limit := int(c.Int("limit", 0))
		lookupStart := time.Now()
		entries := s.dir.Lookup(q)
		s.mLookupLatency.Observe(time.Since(lookupStart))
		if len(entries) == 0 && q.Name != "" && s.rep != nil {
			// The replica may never have cached this name; the miss
			// reads through to the store (outside the serial section — a
			// quorum read must not stall the lookup hot path).
			return s.detachStore(hctx, func(ctx context.Context) *cmdlang.CmdLine {
				return lookupReply(s.rep.lookup(ctx, q), limit)
			}), nil
		}
		return lookupReply(entries, limit), nil
	})

	s.Handle(cmdlang.CommandSpec{
		Name: CmdExpired,
		Doc:  "lease-expiry event (fired internally per reaped entry so §2.6 subscribers hear it)",
		Args: []cmdlang.ArgSpec{
			{Name: "name", Kind: cmdlang.KindWord, Required: true},
			{Name: "addr", Kind: cmdlang.KindString},
		},
	}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		// The command is its notification side effect.
		return cmdlang.OK(), nil
	})

	if s.rep != nil {
		// A sibling replica's change event evicts this replica's
		// in-memory copy, so the next touch reads the store the
		// sibling already updated (SubscribeReplicas wires this up).
		s.Handle(cmdlang.CommandSpec{
			Name: InvalidateVerb,
			Doc:  "directory change notification from a sibling replica",
			Args: []cmdlang.ArgSpec{
				{Name: daemon.NotifySourceArg, Kind: cmdlang.KindWord},
				{Name: daemon.NotifyEventArg, Kind: cmdlang.KindWord},
				{Name: daemon.NotifyDetailArg, Kind: cmdlang.KindString},
			},
		}, func(_ *daemon.Ctx, c *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			if name := invalidationName(c); name != "" {
				s.rep.invalidate(name, ^uint64(0))
			}
			return cmdlang.OK(), nil
		})
	}

	s.Handle(cmdlang.CommandSpec{
		Name: "list",
		Doc:  "list every live entry",
	}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		entries := s.dir.Lookup(Query{})
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name
		}
		return cmdlang.OK().Set("names", cmdlang.WordVector(names...)).SetInt("count", int64(len(entries))), nil
	})
}

// Resolve is the client-side Fig 7 flow: ask the ASD at asdAddr for a
// service matching the query and return its dialable address.
func Resolve(p *daemon.Pool, asdAddr string, q Query) (string, error) {
	reply, err := p.Call(asdAddr, lookupCmd(q))
	if err != nil {
		return "", err
	}
	return reply.Str("addr", ""), nil
}

// ResolveAll returns the addresses of every matching service.
func ResolveAll(p *daemon.Pool, asdAddr string, q Query) ([]string, error) {
	reply, err := p.Call(asdAddr, lookupCmd(q))
	if err != nil {
		return nil, err
	}
	return reply.Strings("addrs"), nil
}
