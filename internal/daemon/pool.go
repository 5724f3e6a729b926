package daemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// Pool resilience defaults. All are overridable through PoolConfig.
const (
	// DefaultPoolRetries is how many times a Call is retried after a
	// transport failure (so up to 1+DefaultPoolRetries attempts).
	DefaultPoolRetries = 2
	// DefaultBackoffBase is the first retry delay; it doubles per
	// retry up to DefaultBackoffMax, with ±50% jitter.
	DefaultBackoffBase = 10 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff.
	DefaultBackoffMax = 500 * time.Millisecond
	// DefaultBreakerThreshold is the consecutive transport failures
	// that open an address's circuit breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker refuses
	// calls before admitting a half-open probe.
	DefaultBreakerCooldown = 500 * time.Millisecond
)

// PoolConfig tunes a Pool's connection handling and resilience
// behavior. The zero value (plus a Transport) gives the defaults
// above with the wire package's default timeouts.
type PoolConfig struct {
	// Transport supplies TLS identity; nil means plaintext.
	Transport *wire.Transport
	// DialTimeout bounds connection establishment; 0 means
	// wire.DefaultDialTimeout.
	DialTimeout time.Duration
	// CallTimeout is the default per-call deadline applied when a
	// caller's context has none; 0 means wire.DefaultCallTimeout.
	CallTimeout time.Duration
	// MaxRetries is the number of transport-failure retries per Call;
	// negative disables retries entirely. 0 means DefaultPoolRetries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between retries. 0 means the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens an
	// address's breaker; 0 means DefaultBreakerThreshold, negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open delay; 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Seed seeds the jitter PRNG, making retry schedules reproducible
	// in tests; 0 means a fixed default seed.
	Seed int64
	// Telemetry, when non-nil, receives the pool's counters
	// (pool.retries, pool.breaker.transitions) and — unless Metrics is
	// set explicitly — the wire instruments of every dialed client.
	Telemetry *telemetry.Registry
	// Metrics is the wire instrument group installed on dialed clients;
	// nil derives one from Telemetry (or stays no-op when both are nil).
	Metrics *wire.Metrics
	// OnBreakerChange, when set, observes every circuit breaker state
	// transition. It is called outside breaker locks, once per real
	// transition, with the address and the "closed"/"open"/"half-open"
	// state names.
	OnBreakerChange func(addr, from, to string)
	// LookupNegativeTTL bounds negative ("no matching service")
	// entries of the pool's service-discovery cache; 0 means
	// DefaultLookupNegativeTTL.
	LookupNegativeTTL time.Duration
}

func (cfg PoolConfig) withDefaults() PoolConfig {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = wire.DefaultDialTimeout
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = wire.DefaultCallTimeout
	}
	switch {
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultPoolRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	switch {
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = wire.NewMetrics(cfg.Telemetry)
	}
	return cfg
}

// Pool caches outgoing client connections by address so that daemons
// calling each other repeatedly (lease renewals, notifications,
// lookups) reuse sockets instead of re-handshaking TLS per command.
// Every address additionally carries a circuit breaker, and calls are
// retried with capped exponential backoff, so a dead peer costs its
// callers microseconds once the breaker opens instead of a dial
// timeout per call.
type Pool struct {
	cfg PoolConfig

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// lookups is the client-edge service-discovery cache; directory
	// clients (asd.Client) consult it before calling the directory.
	lookups *LookupCache

	retries     *telemetry.Counter
	busyRetries *telemetry.Counter
	redirects   *telemetry.Counter
	transitions *telemetry.Counter
}

// Metric names recorded by the pool.
const (
	MetricPoolRetries        = "pool.retries"
	MetricPoolBusyRetries    = "pool.busy_retries"
	MetricPoolRedirects      = "pool.redirects"
	MetricBreakerTransitions = "pool.breaker.transitions"
)

// NewPool returns a pool dialing with the given transport (nil =
// plaintext) and default resilience settings.
func NewPool(t *wire.Transport) *Pool {
	return NewPoolConfig(PoolConfig{Transport: t})
}

// NewPoolConfig returns a pool with explicit resilience settings.
func NewPoolConfig(cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:         cfg,
		peers:       make(map[string]*peer),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		lookups:     NewLookupCache(cfg.LookupNegativeTTL, cfg.Telemetry),
		retries:     cfg.Telemetry.Counter(MetricPoolRetries),
		busyRetries: cfg.Telemetry.Counter(MetricPoolBusyRetries),
		redirects:   cfg.Telemetry.Counter(MetricPoolRedirects),
		transitions: cfg.Telemetry.Counter(MetricBreakerTransitions),
	}
}

// Lookups returns the pool's service-discovery cache.
func (p *Pool) Lookups() *LookupCache { return p.lookups }

// Telemetry returns the registry the pool records into (nil when the
// pool was configured without one).
func (p *Pool) Telemetry() *telemetry.Registry {
	return p.cfg.Telemetry
}

// peer is everything the pool keeps about one address. The breaker
// lives as long as the pool; the client comes and goes with the
// connection (nil until dialed, nil again after a transport failure).
type peer struct {
	breaker *breaker
	client  *wire.Client // guarded by Pool.mu
}

// peerFor resolves addr's record, creating it on first use, together with
// the client currently pooled for it (nil when there is none) — one
// lock for everything a call attempt needs to know about the address.
func (p *Pool) peerFor(addr string) (*peer, *wire.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, nil, wire.ErrClosed
	}
	pe, ok := p.peers[addr]
	if !ok {
		pe = &peer{breaker: newBreaker(p.cfg.BreakerThreshold, p.cfg.BreakerCooldown)}
		pe.breaker.onChange = func(from, to breakerState) {
			p.transitions.Inc()
			if p.cfg.OnBreakerChange != nil {
				p.cfg.OnBreakerChange(addr, from.String(), to.String())
			}
		}
		p.peers[addr] = pe
	}
	return pe, pe.client, nil
}

// BreakerState reports the breaker state for addr ("closed", "open",
// "half-open"); "closed" when breakers are disabled or addr unknown.
func (p *Pool) BreakerState(addr string) string {
	p.mu.Lock()
	pe := p.peers[addr]
	p.mu.Unlock()
	if pe == nil {
		return breakerClosed.String()
	}
	return pe.breaker.currentState().String()
}

// Get returns a live client to addr, dialing if necessary. Get does
// not consult the breaker; Call/Send do.
func (p *Pool) Get(addr string) (*wire.Client, error) {
	return p.GetContext(context.Background(), addr)
}

// GetContext is Get with a dial bounded by ctx (and the pool's dial
// timeout, whichever is sooner).
func (p *Pool) GetContext(ctx context.Context, addr string) (*wire.Client, error) {
	pe, c, err := p.peerFor(addr)
	if err != nil || c != nil {
		return c, err
	}
	return p.dial(ctx, time.Time{}, addr, pe)
}

// dial connects to addr and pools the client on pe, unless a
// concurrent dial got there first (its client wins) or the pool closed
// meanwhile. The dial ends with ctx, at the deadline when one is given,
// or after the pool's dial timeout, whichever is soonest.
func (p *Pool) dial(ctx context.Context, deadline time.Time, addr string, pe *peer) (*wire.Client, error) {
	by := time.Now().Add(p.cfg.DialTimeout)
	if !deadline.IsZero() && deadline.Before(by) {
		by = deadline
	}
	dctx, cancel := context.WithDeadline(ctx, by)
	defer cancel()
	c, err := wire.DialContext(dctx, p.cfg.Transport, addr)
	if err != nil {
		return nil, err
	}
	c.SetCallTimeout(p.cfg.CallTimeout)
	c.SetMetrics(p.cfg.Metrics)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return nil, wire.ErrClosed
	}
	if existing := pe.client; existing != nil {
		p.mu.Unlock()
		_ = c.Close()
		return existing, nil
	}
	pe.client = c
	p.mu.Unlock()
	return c, nil
}

// drop unpools a client after a transport failure so the next call
// redials. The peer record, and with it the breaker's memory of the
// address, stays.
func (p *Pool) drop(pe *peer, c *wire.Client) {
	p.mu.Lock()
	if pe.client == c {
		pe.client = nil
	}
	p.mu.Unlock()
	_ = c.Close()
}

// delay is the capped exponential delay before retry attempt n
// (1-based) with ±50% jitter. A positive floor (a server's retry_after
// hint) raises it so the retry does not land before the server expects
// capacity back.
func (p *Pool) delay(attempt int, floor time.Duration) time.Duration {
	d := p.cfg.BackoffBase << (attempt - 1)
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	p.rngMu.Lock()
	jitter := 0.5 + p.rng.Float64() // [0.5, 1.5)
	p.rngMu.Unlock()
	return max(time.Duration(float64(d)*jitter), floor)
}

// backoff sleeps the delay before retry attempt n, or returns early
// when ctx expires or the deadline (zero: none beyond ctx's) passes.
func (p *Pool) backoff(ctx context.Context, deadline time.Time, attempt int, floor time.Duration) error {
	d := p.delay(attempt, floor)
	cut := false // the call's time runs out during the wait
	if !deadline.IsZero() {
		if left := time.Until(deadline); left < d {
			d, cut = left, true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		if cut {
			return context.DeadlineExceeded
		}
		return nil
	}
}

// Call issues a request/response command to addr under the pool's
// default call timeout, retrying transport failures with backoff.
func (p *Pool) Call(addr string, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return p.CallContext(context.Background(), addr, cmd)
}

// CallContext issues a request/response command to addr. The context
// bounds the entire exchange including retries; when it carries no
// deadline the pool's CallTimeout applies, so no call path can block
// forever. Transport failures are retried up to MaxRetries times with
// capped exponential backoff and jitter; remote errors (the daemon
// answered "fail") are returned immediately and never retried — with
// one exception: a "busy" reply is the server's admission controller
// shedding load before execution, so it is retried like a transport
// failure (same attempt budget, backoff raised to any server-supplied
// retry_after hint) but never charges the circuit breaker or drops
// the connection, because the peer is demonstrably alive. A
// "wrong_group" reply (placement redirect) is likewise never a peer
// failure: it is returned immediately for the caller's routing layer
// to re-route after a map refresh, counted under pool.redirects, with
// no retry, no breaker charge, and no connection drop. When the
// address's circuit breaker is open the call fails fast with
// ErrCircuitOpen without touching the network.
//
// A cancelled context (context.Canceled, as opposed to a deadline)
// means the caller abandoned the call: it is returned without retry,
// without charging the breaker, and without dropping the pooled
// connection — the pending reply is discarded by sequence number, so
// the connection remains valid for other callers. A command too large
// for a frame (*wire.ErrFrameTooLarge) is likewise the caller's own
// failure and treated the same way.
func (p *Pool) CallContext(ctx context.Context, addr string, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	// A context with no deadline gets the pool's as a plain time, which
	// every attempt, dial and backoff is held to: deriving a context per
	// call would cost more than the rest of the pool's work on it.
	var deadline time.Time
	if _, ok := ctx.Deadline(); !ok {
		deadline = time.Now().Add(p.cfg.CallTimeout)
	}
	over := func() bool {
		return ctx.Err() != nil || !deadline.IsZero() && !time.Now().Before(deadline)
	}
	var lastErr error
	var retryFloor time.Duration // server-suggested wait before the next attempt
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := p.backoff(ctx, deadline, attempt, retryFloor); err != nil {
				return nil, lastErr
			}
			p.retries.Inc()
		}
		retryFloor = 0
		pe, c, err := p.peerFor(addr)
		if err != nil {
			return nil, err
		}
		br := pe.breaker
		if err := br.allow(); err != nil {
			return nil, fmt.Errorf("daemon: %s: %w", addr, err)
		}
		var reply *cmdlang.CmdLine
		if c == nil {
			c, err = p.dial(ctx, deadline, addr, pe)
		}
		if err == nil {
			reply, err = c.CallDeadline(ctx, deadline, cmd)
		}
		re, isRemote := err.(*cmdlang.RemoteError)
		_, tooLarge := err.(*wire.ErrFrameTooLarge)
		switch {
		case err == nil:
			br.success()
			return reply, nil
		case isRemote:
			// The daemon answered; the connection and peer are fine.
			br.success()
			if re.Code == cmdlang.CodeWrongGroup {
				// Placement redirect: the peer is healthy but is not the
				// partition's group (or the request's epoch is stale).
				// Retrying the same address cannot help — the caller's
				// routing layer must refresh its placement map and
				// re-route — so it is returned immediately, counted, and
				// never charges the breaker.
				p.redirects.Inc()
				return nil, err
			}
			if re.Code != cmdlang.CodeBusy {
				return nil, err
			}
			// Overload push-back: the command was shed before execution,
			// so a retry cannot duplicate side effects. Honor the
			// server's retry_after hint as the backoff floor.
			lastErr = err
			retryFloor = re.RetryAfter
			if over() || attempt >= p.cfg.MaxRetries {
				return nil, lastErr
			}
			p.busyRetries.Inc()
			continue
		case errors.Is(err, context.Canceled):
			// The caller abandoned the call — e.g. a quorum fast-path
			// cancelling a straggler once the outcome was decided. The
			// peer did nothing wrong, so the breaker is not charged and
			// a retry would be pointless. The probe slot this call may
			// hold in a half-open breaker is released unjudged, or the
			// next probe would be refused forever. The connection stays
			// pooled too: the wire client removed the pending entry and
			// will discard the late reply by its seq, the framing stream
			// is intact, and tearing the (shared) connection down would
			// punish every other caller multiplexed onto it.
			br.abandon()
			return nil, err
		case tooLarge:
			// The command does not fit a frame and nothing of it was
			// written: the caller's error, told to the caller alone. The
			// connection, the breaker and the retry budget are untouched,
			// as no attempt on any connection could fare better.
			br.abandon()
			return nil, err
		}
		// A transport failure may have corrupted the framing stream, so
		// the connection is dropped and the next attempt redials.
		if c != nil {
			p.drop(pe, c)
		}
		br.failure()
		lastErr = err
		if over() || attempt >= p.cfg.MaxRetries {
			return nil, lastErr
		}
	}
}

// Started is a call Pool.Start began on a pooled connection without
// blocking. Its Result arrives on the sink Start was given, for Settle
// to account; Cancel gives it up before then.
type Started struct {
	pe       *peer
	c        *wire.Client
	seq      int64
	deadline time.Time
}

// Deadline is the instant the call's owner must give it up by: Start
// arms no timer for it.
func (s Started) Deadline() time.Time { return s.deadline }

// Cancel gives the call up; false means its Result is on its way to
// the sink, or there already, and still wants settling.
func (s Started) Cancel() bool { return s.c.Cancel(s.seq) }

// Start is the non-blocking first attempt of a call: it writes cmd to
// addr and returns at once, its Result to arrive on sink under tag. It
// starts only on a live pooled connection whose breaker is closed and
// whose peer is answering (see wire.Client.Start), since the caller
// writes the frame itself and must not block on a peer that stopped
// reading. Anything else — a dial, a breaker probe, a connection that
// failed or went quiet — returns false, for the call to take
// CallContext. The call is held to deadline, else ctx's, else the
// pool's call timeout from now.
func (p *Pool) Start(ctx context.Context, deadline time.Time, addr string, cmd *cmdlang.CmdLine, sink chan<- wire.Result, tag int) (Started, bool) {
	p.mu.Lock()
	pe := p.peers[addr]
	var c *wire.Client
	if pe != nil {
		c = pe.client
	}
	p.mu.Unlock()
	if c == nil || pe.breaker.currentState() != breakerClosed {
		return Started{}, false
	}
	if deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		} else {
			deadline = time.Now().Add(p.cfg.CallTimeout)
		}
	}
	seq, err := c.Start(ctx, deadline, cmd, sink, tag)
	if err != nil {
		return Started{}, false
	}
	return Started{pe: pe, c: c, seq: seq, deadline: deadline}, true
}

// Settle accounts the Result of a started call the way CallContext
// accounts an attempt — the breaker, the pooled connection,
// pool.redirects — and returns the call's outcome. A positive retryIn
// says that CallContext would retry it, after that long: the call
// failed in transport, or was shed busy (retryIn is then no shorter
// than the reply's retry_after), and retries and time are left. The
// caller then runs it there, on the blocking path, once retryIn has
// passed. A Result the owner made up on giving the call up —
// context.Canceled when it abandoned it, context.DeadlineExceeded at
// its deadline — is settled as CallContext settles its own: unjudged,
// or as a timed-out transport failure.
func (p *Pool) Settle(s Started, res wire.Result) (reply *cmdlang.CmdLine, retryIn time.Duration, err error) {
	br := s.pe.breaker
	retry := func() bool { return p.cfg.MaxRetries > 0 && time.Now().Before(s.deadline) }
	if res.Err == nil {
		// The daemon answered; the connection and peer are fine.
		br.success()
		err := cmdlang.ReplyError(res.Reply)
		re, _ := err.(*cmdlang.RemoteError)
		switch {
		case err == nil:
			return res.Reply, 0, nil
		case re == nil:
		case re.Code == cmdlang.CodeWrongGroup:
			p.redirects.Inc()
		case re.Code == cmdlang.CodeBusy && retry():
			p.busyRetries.Inc()
			p.retries.Inc()
			return nil, p.delay(1, re.RetryAfter), err
		}
		return nil, 0, err
	}
	if errors.Is(res.Err, context.Canceled) {
		br.abandon()
		return nil, 0, res.Err
	}
	p.drop(s.pe, s.c)
	br.failure()
	if errors.Is(res.Err, context.DeadlineExceeded) {
		p.cfg.Metrics.CallTimeout()
		return nil, 0, res.Err
	}
	if !retry() {
		return nil, 0, res.Err
	}
	p.retries.Inc()
	return nil, p.delay(1, 0), res.Err
}

// Failover tries call against addrs in sticky preference order: it
// starts at the replica *preferred indexes — the one that last
// answered — and moves to the next on a transport failure. A remote
// error means a replica answered, and replicas of one service serve
// the same state and would say the same, so it is returned at once and
// that replica stays preferred. With every replica unreachable the
// last transport error is returned.
func Failover(addrs []string, preferred *atomic.Int32, call func(addr string) (*cmdlang.CmdLine, error)) (*cmdlang.CmdLine, error) {
	n := len(addrs)
	if n == 0 {
		return nil, errors.New("daemon: no replica address to call")
	}
	start := int(preferred.Load()) % n
	var lastErr error
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		reply, err := call(addrs[idx])
		var re *cmdlang.RemoteError
		if err == nil || errors.As(err, &re) {
			preferred.Store(int32(idx))
			return reply, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// Send transmits a one-way command (no reply expected) to addr.
//
// Delivery is at-least-once: Send only retries when the pooled
// connection was already known dead before anything was written
// (wire.ErrClosed), in which case no bytes hit the wire and a resend
// cannot duplicate. A failure mid-write is returned without retrying,
// because part of the frame may have reached the peer and a blind
// resend could deliver the notification twice. Callers that need
// exactly-once must deduplicate on the receiving side.
func (p *Pool) Send(addr string, cmd *cmdlang.CmdLine) error {
	return p.SendContext(context.Background(), addr, cmd)
}

// SendContext is Send with a caller context. The context is not a
// deadline for the write (Send's at-least-once contract is unchanged);
// it exists to carry a trace span context onto the one-way frame so
// notifications join the trace of the command that triggered them.
func (p *Pool) SendContext(ctx context.Context, addr string, cmd *cmdlang.CmdLine) error {
	for attempt := 0; attempt < 2; attempt++ {
		pe, c, err := p.peerFor(addr)
		if err != nil {
			return err
		}
		br := pe.breaker
		if err := br.allow(); err != nil {
			return fmt.Errorf("daemon: %s: %w", addr, err)
		}
		if c == nil {
			if c, err = p.dial(ctx, time.Time{}, addr, pe); err != nil {
				br.failure()
				return err
			}
		}
		err = c.SendContext(ctx, cmd)
		if err == nil {
			br.success()
			return nil
		}
		if _, tooLarge := err.(*wire.ErrFrameTooLarge); tooLarge {
			// Nothing was written: the caller's error, not the peer's.
			br.abandon()
			return err
		}
		p.drop(pe, c)
		if !errors.Is(err, wire.ErrClosed) {
			// Bytes may have hit the wire: surface the failure rather
			// than risk double delivery.
			br.failure()
			return err
		}
		// Known-dead before the write: nothing was sent; safe to retry
		// once on a fresh connection. Not a peer failure, so the
		// breaker is not charged.
	}
	return wire.ErrClosed
}

// Close closes every pooled connection and forgets every address.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var clients []*wire.Client
	for _, pe := range p.peers {
		if pe.client != nil {
			clients = append(clients, pe.client)
			pe.client = nil
		}
	}
	clear(p.peers)
	p.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
}
