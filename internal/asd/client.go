package asd

import (
	"context"
	"strings"
	"sync/atomic"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
)

// InvalidateVerb is the notification method directory subscribers
// install to hear register/unregister/expired events — the §2.6
// machinery that keeps client lookup caches (and sibling replicas'
// memory) coherent with directory changes.
const InvalidateVerb = "directoryChanged"

// invalidationEvents are the directory verbs whose execution changes
// lookup answers.
var invalidationEvents = []string{daemon.CmdRegister, daemon.CmdUnregister, CmdExpired}

// Client is the caching, failover-aware directory client. It resolves
// queries through the pool's LookupCache first — a warm lookup never
// leaves the process — and walks the replica list on transport
// failure, so one dead directory daemon costs a resolution
// milliseconds once, not an outage.
type Client struct {
	pool  *daemon.Pool
	addrs []string
	// preferred indexes the replica that last answered.
	preferred atomic.Int32
}

// NewClient builds a client resolving against the given directory
// replicas (one address = the classic single ASD).
func NewClient(pool *daemon.Pool, addrs ...string) *Client {
	return &Client{pool: pool, addrs: addrs}
}

// queryKey canonicalizes a query for cache keying.
func queryKey(q Query) string {
	var b strings.Builder
	b.WriteString("n=")
	b.WriteString(q.Name)
	b.WriteString("|c=")
	b.WriteString(q.Class)
	b.WriteString("|r=")
	b.WriteString(q.Room)
	return b.String()
}

// lookupCmd builds the lookup command for q; empty fields match
// everything and are left out.
func lookupCmd(q Query) *cmdlang.CmdLine {
	cmd := cmdlang.New(daemon.CmdLookup)
	if q.Name != "" {
		cmd.SetWord("name", q.Name)
	}
	if q.Class != "" {
		cmd.SetString("class", q.Class)
	}
	if q.Room != "" {
		cmd.SetWord("room", q.Room)
	}
	return cmd
}

// call walks the replica list starting at the last responsive one.
// Remote errors (the directory answered) return immediately; only
// transport failures fail over.
func (c *Client) call(ctx context.Context, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return daemon.Failover(c.addrs, &c.preferred, func(addr string) (*cmdlang.CmdLine, error) {
		return c.pool.CallContext(ctx, addr, cmd)
	})
}

// ResolveAllContext returns the addresses of every service matching
// q, served from the pool's lookup cache when warm. A cached negative
// answer returns the same not_found remote error an uncached miss
// would, so callers cannot tell (except by latency) where the answer
// came from.
func (c *Client) ResolveAllContext(ctx context.Context, q Query) ([]string, error) {
	cache := c.pool.Lookups()
	key := queryKey(q)
	if addrs, negative, ok := cache.Get(key); ok {
		if negative {
			return nil, &cmdlang.RemoteError{Code: cmdlang.CodeNotFound, Msg: "no matching service"}
		}
		return addrs, nil
	}
	reply, err := c.call(ctx, lookupCmd(q))
	if err != nil {
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			cache.PutNegative(key)
		}
		return nil, err
	}
	names := reply.Strings("names")
	addrs := reply.Strings("addrs")
	cache.PutPositive(key, names, addrs, q.Name == "")
	return addrs, nil
}

// ResolveContext returns one matching service's dialable address.
func (c *Client) ResolveContext(ctx context.Context, q Query) (string, error) {
	addrs, err := c.ResolveAllContext(ctx, q)
	if err != nil {
		return "", err
	}
	if len(addrs) == 0 {
		return "", &cmdlang.RemoteError{Code: cmdlang.CodeNotFound, Msg: "no matching service"}
	}
	return addrs[0], nil
}

// Resolve is ResolveContext with a background context.
func (c *Client) Resolve(q Query) (string, error) {
	return c.ResolveContext(context.Background(), q)
}

// invalidationName extracts the service name a directoryChanged
// notification concerns from its detail argument (the full original
// register/unregister/expired command string).
func invalidationName(c *cmdlang.CmdLine) string {
	detail, err := cmdlang.Parse(c.Str(daemon.NotifyDetailArg, ""))
	if err != nil {
		return ""
	}
	return detail.Str("name", "")
}

// HandleInvalidation installs the notification method that applies
// directory change events to the pool's lookup cache. Call before the
// daemon starts (handlers are fixed at start).
func (c *Client) HandleInvalidation(d *daemon.Daemon) {
	cache := c.pool.Lookups()
	d.Handle(cmdlang.CommandSpec{
		Name: InvalidateVerb,
		Doc:  "directory change notification (register/unregister/expired)",
		Args: []cmdlang.ArgSpec{
			{Name: daemon.NotifySourceArg, Kind: cmdlang.KindWord},
			{Name: daemon.NotifyEventArg, Kind: cmdlang.KindWord},
			{Name: daemon.NotifyDetailArg, Kind: cmdlang.KindString},
		},
	}, func(_ *daemon.Ctx, cl *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		if name := invalidationName(cl); name != "" {
			cache.Invalidate(cl.Str(daemon.NotifyEventArg, ""), name)
		}
		return cmdlang.OK(), nil
	})
}

// SubscribeInvalidation registers the started daemon on every
// directory replica's notification list for register, unregister, and
// expired, completing what HandleInvalidation began: from here on a
// directory change evicts this pool's cached lookups within one
// notification delivery instead of one negative TTL.
func (c *Client) SubscribeInvalidation(d *daemon.Daemon) error {
	for _, addr := range c.addrs {
		for _, event := range invalidationEvents {
			if err := daemon.Subscribe(c.pool, addr, event, d.Name(), d.Addr(), InvalidateVerb); err != nil {
				return err
			}
		}
	}
	return nil
}

// SubscribeReplicas cross-subscribes every replicated directory
// daemon to its siblings' change events, so a registration acked by
// one replica evicts the others' stale memory within one notification
// delivery instead of one sync pass. Call once every replica is
// started.
func SubscribeReplicas(p *daemon.Pool, replicas []*Service) error {
	for _, listener := range replicas {
		for _, source := range replicas {
			if source == listener {
				continue
			}
			for _, event := range invalidationEvents {
				if err := daemon.Subscribe(p, source.Addr(), event, listener.Name(), listener.Addr(), InvalidateVerb); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
