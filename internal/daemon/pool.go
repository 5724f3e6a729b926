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
	// (pool.retries, pool.breaker.transitions) and the wire instruments
	// of every dialed client.
	Telemetry *telemetry.Registry
	// OnBreakerChange, when set, observes every circuit breaker state
	// transition. It is called outside breaker locks, once per real
	// transition, with the address and the "closed"/"open"/"half-open"
	// state names.
	OnBreakerChange func(addr, from, to string)
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

	metrics     *wire.Metrics // installed on every dialed client
	retries     *telemetry.Counter
	busyRetries *telemetry.Counter
	transitions *telemetry.Counter
}

// Metric names recorded by the pool.
const (
	MetricPoolRetries        = "pool.retries"
	MetricPoolBusyRetries    = "pool.busy_retries"
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
		lookups:     NewLookupCache(cfg.Telemetry),
		metrics:     wire.NewMetrics(cfg.Telemetry),
		retries:     cfg.Telemetry.Counter(MetricPoolRetries),
		busyRetries: cfg.Telemetry.Counter(MetricPoolBusyRetries),
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
	pe, c, err := p.peerFor(addr)
	if err != nil || c != nil {
		return c, err
	}
	return p.dial(context.Background(), time.Time{}, addr, pe)
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
	c, err := wire.DialContext(dctx, p.cfg.Transport, addr, p.cfg.CallTimeout, p.metrics)
	if err != nil {
		return nil, err
	}
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

// Call issues a request/response command to addr under the pool's
// default call timeout, retrying transport failures with backoff.
func (p *Pool) Call(addr string, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return p.CallContext(context.Background(), addr, cmd)
}

// CallContext issues a request/response command to addr and returns its
// reply; a "fail" reply is returned as a *cmdlang.RemoteError. ctx bounds
// the whole call, retries included; when it carries no deadline the
// pool's CallTimeout applies. The call makes at most 1+MaxRetries
// attempts (settle says which outcomes are retried), and fails fast with
// ErrCircuitOpen while addr's breaker is open.
func (p *Pool) CallContext(ctx context.Context, addr string, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	// A context with no deadline gets the pool's as a plain time:
	// deriving a context per call would cost more than the rest of the
	// pool's work on it.
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(p.cfg.CallTimeout)
	}
	return p.call(ctx, deadline, addr, cmd, 0, 0)
}

// call makes attempt number attempt of a call held to deadline, after
// wait, and then the next ones, for as long as settle retries.
func (p *Pool) call(ctx context.Context, deadline time.Time, addr string, cmd *cmdlang.CmdLine, attempt int, wait time.Duration) (*cmdlang.CmdLine, error) {
	for ; ; attempt++ {
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		pe, c, err := p.peerFor(addr)
		if err != nil {
			return nil, err
		}
		if err := pe.breaker.allow(); err != nil {
			return nil, fmt.Errorf("daemon: %s: %w", addr, err)
		}
		var reply *cmdlang.CmdLine
		if c == nil {
			c, err = p.dial(ctx, deadline, addr, pe)
		}
		if err == nil {
			reply, err = c.RoundTrip(ctx, deadline, cmd)
		}
		if reply, wait, err = p.settle(pe, c, attempt, deadline, reply, err); wait == 0 {
			return reply, err
		}
	}
}

// settle is the pool's attempt policy: every attempt of every call, made
// blocking or started, is accounted here. It takes attempt number attempt
// (0 is the first) of a call held to deadline, made on c (nil when the
// dial failed), and its outcome, reply or err. It returns what the call
// returns, or, with a positive wait, the error and how long to wait
// before the next attempt.
//
//   - A reply means the peer is fine, and the breaker is told so. "ok" is
//     returned as it is and "fail" as a *cmdlang.RemoteError, with no
//     retry, except "busy": the admission controller shed the command
//     before it ran, so a retry cannot run it twice. A busy call is
//     retried no sooner than the reply's retry_after, and the retry is
//     counted in pool.busy_retries too.
//   - A cancelled call (context.Canceled) and a command too large for a
//     frame are the caller's own doing: the breaker's probe slot, if the
//     call held it, is given back unjudged, the connection stays (a late
//     reply is dropped by its seq), and nothing is retried.
//   - Any other error is a transport failure, a timeout (counted in
//     wire.call.timeouts) included: the breaker is charged, and the
//     connection, whose framing may be broken, is dropped for the next
//     attempt to redial.
//
// A call is retried, and the retry counted in pool.retries, while it has
// attempts left — 1+MaxRetries in all — and the wait ends before its
// deadline. The wait doubles with each attempt from BackoffBase up to
// BackoffMax, with ±50% jitter.
func (p *Pool) settle(pe *peer, c *wire.Client, attempt int, deadline time.Time, reply *cmdlang.CmdLine, err error) (*cmdlang.CmdLine, time.Duration, error) {
	br := pe.breaker
	var busy *cmdlang.RemoteError
	_, tooLarge := err.(*wire.ErrFrameTooLarge)
	switch {
	case err == nil:
		br.success()
		if err = cmdlang.ReplyError(reply); err == nil {
			return reply, 0, nil
		}
		re, _ := err.(*cmdlang.RemoteError)
		if re == nil || re.Code != cmdlang.CodeBusy {
			return nil, 0, err
		}
		busy = re
	case tooLarge || errors.Is(err, context.Canceled):
		br.abandon()
		return nil, 0, err
	default:
		if c != nil {
			p.drop(pe, c)
			if errors.Is(err, context.DeadlineExceeded) {
				p.metrics.CallTimeout()
			}
		}
		br.failure()
	}
	if attempt >= p.cfg.MaxRetries {
		return nil, 0, err
	}
	d := p.cfg.BackoffBase << attempt
	if d > p.cfg.BackoffMax || d <= 0 {
		d = p.cfg.BackoffMax
	}
	p.rngMu.Lock()
	jitter := 0.5 + p.rng.Float64() // [0.5, 1.5)
	p.rngMu.Unlock()
	wait := time.Duration(float64(d) * jitter)
	if busy != nil {
		wait = max(wait, busy.RetryAfter)
	}
	if !time.Now().Add(wait).Before(deadline) {
		return nil, 0, err
	}
	p.retries.Inc()
	if busy != nil {
		p.busyRetries.Inc()
	}
	return nil, wait, err
}

// Started is a call Pool.Start began on a pooled connection without
// blocking: the call's first attempt. Its Result arrives on the sink
// Start was given, for Settle to account; Cancel gives it up before then.
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
// whose peer reads what it is sent (see wire.Client.Start), since the
// caller has no goroutine of its own to wait out a dial or a slow peer.
// Anything else — a dial, a breaker probe, a connection that failed or
// fell behind — returns false, for the call to take CallContext. The
// call is held to deadline, else ctx's, else the pool's call timeout
// from now.
func (p *Pool) Start(ctx context.Context, deadline time.Time, addr string, cmd *cmdlang.CmdLine, sink chan<- wire.Result, tag int) (Started, bool) {
	pe, c := p.live(addr)
	if c == nil {
		return Started{}, false
	}
	if deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		} else {
			deadline = time.Now().Add(p.cfg.CallTimeout)
		}
	}
	seq, err := c.Start(ctx, cmd, sink, tag)
	if err != nil {
		return Started{}, false
	}
	return Started{pe: pe, c: c, seq: seq, deadline: deadline}, true
}

// live returns addr's record and pooled connection when a call may be
// written on it without blocking or dialing: the connection is up and
// the breaker closed. The client is nil otherwise.
func (p *Pool) live(addr string) (*peer, *wire.Client) {
	p.mu.Lock()
	pe := p.peers[addr]
	var c *wire.Client
	if pe != nil {
		c = pe.client
	}
	p.mu.Unlock()
	if c == nil || pe.breaker.currentState() != breakerClosed {
		return nil, nil
	}
	return pe, c
}

// Tell writes cmd to addr as a one-way frame, which the peer answers
// with nothing, on Start's terms: only on a live pooled connection whose
// breaker is closed and whose peer reads what it is sent, and never
// dialing. It reports whether the frame was written; false leaves the
// caller to send cmd another way. A write that failed drops the
// connection, so that the next call redials, and charges no breaker: no
// answer was due.
func (p *Pool) Tell(ctx context.Context, addr string, cmd *cmdlang.CmdLine) bool {
	pe, c := p.live(addr)
	if c == nil {
		return false
	}
	if err := c.Tell(ctx, cmd); err != nil {
		if c.Closed() {
			p.drop(pe, c)
		}
		return false
	}
	return true
}

// Settle accounts the Result of a started call, its first attempt, as
// settle accounts every attempt, and returns the call's outcome. A
// positive retryIn means the call is to be retried: Retry continues it
// after that long. A Result the owner made up on giving the call up —
// context.Canceled when it abandoned it, context.DeadlineExceeded at its
// deadline — is settled as the call's own would be: unjudged, or as a
// timeout.
func (p *Pool) Settle(s Started, res wire.Result) (reply *cmdlang.CmdLine, retryIn time.Duration, err error) {
	return p.settle(s.pe, s.c, 0, s.deadline, res.Reply, res.Err)
}

// Retry continues the started call s of cmd to addr on the blocking path
// once Settle returned it a positive wait: after the wait, from the
// call's second attempt on, held to its deadline and its attempts left.
func (p *Pool) Retry(ctx context.Context, addr string, cmd *cmdlang.CmdLine, s Started, wait time.Duration) (*cmdlang.CmdLine, error) {
	return p.call(ctx, s.deadline, addr, cmd, 1, wait)
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
