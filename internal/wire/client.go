package wire

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/hlc"
	"ace/internal/telemetry"
)

// ErrClosed is returned by calls on a closed client. A Send that
// fails with ErrClosed is guaranteed to have written nothing: the
// connection was already known dead before the attempt.
var ErrClosed = errors.New("wire: client closed")

// Default timeouts. Both are configurable per daemon.Pool so tests and
// latency-sensitive daemons can tighten them; the package constants are
// only the fallback.
const (
	// DefaultDialTimeout bounds connection establishment to a daemon.
	DefaultDialTimeout = 5 * time.Second
	// DefaultCallTimeout bounds one request/response exchange when the
	// caller's context carries no deadline of its own. No Call may
	// block forever: a stalled peer surfaces as
	// context.DeadlineExceeded within this bound.
	DefaultCallTimeout = 10 * time.Second
)

// Client is a connection to one ACE service daemon's command port.
// It is safe for concurrent use: calls are correlated by the "seq"
// argument, so many goroutines can have requests in flight on the
// same connection.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[int64]*call
	err     error
	closed  bool

	seq atomic.Int64

	onPush func(*cmdlang.CmdLine)

	callTimeout time.Duration

	metrics atomic.Pointer[Metrics]
}

// call is one request waiting for its reply. Calls are recycled through
// callPool, but only by the caller that received the reply: a call that
// gave up (cancelled, timed out) may already be in the reader's hands,
// about to be sent a reply no later call must see, so it is left to
// the collector.
type call struct {
	reply chan *cmdlang.CmdLine // one slot; closed when the connection fails
	// timer bounds a call whose context carries no deadline. A tick it
	// left unread in a recycled call is told from a real one by the
	// clock (see roundTrip), so Stop needs no drain.
	timer *time.Timer
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &call{reply: make(chan *cmdlang.CmdLine, 1), timer: t}
}}

// SetOnPush installs a handler for commands that arrive without a
// matching pending sequence number (server pushes, e.g. streamed
// notifications on a subscription channel). Pushes arriving before a
// handler is installed are dropped.
func (c *Client) SetOnPush(fn func(*cmdlang.CmdLine)) {
	c.mu.Lock()
	c.onPush = fn
	c.mu.Unlock()
}

// SetCallTimeout overrides the default per-call deadline applied when
// a caller's context has none. d <= 0 restores DefaultCallTimeout.
func (c *Client) SetCallTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultCallTimeout
	}
	c.mu.Lock()
	c.callTimeout = d
	c.mu.Unlock()
}

// SetMetrics installs the telemetry instrument group recording this
// connection's traffic (nil disables). Safe to call concurrently
// with in-flight traffic.
func (c *Client) SetMetrics(m *Metrics) { c.metrics.Store(m) }

// m returns the active instrument group; may be nil (no-op).
func (c *Client) m() *Metrics { return c.metrics.Load() }

// Dial connects to a daemon command port using the transport's TLS
// client configuration (or plaintext when the transport is nil or
// plaintext).
func Dial(t *Transport, addr string) (*Client, error) {
	return DialContext(context.Background(), t, addr)
}

// DialContext is Dial bounded by ctx; when ctx carries no deadline
// DefaultDialTimeout applies.
func DialContext(ctx context.Context, t *Transport, addr string) (*Client, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultDialTimeout)
		defer cancel()
	}
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	cfg := t.ClientConfig("")
	var conn net.Conn = raw
	if cfg != nil {
		tc := tls.Client(raw, cfg)
		if err := tc.HandshakeContext(ctx); err != nil {
			raw.Close()
			return nil, fmt.Errorf("wire: TLS handshake with %s: %w", addr, err)
		}
		conn = tc
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (already TLS'd if
// desired) and starts the reader goroutine.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:        conn,
		pending:     make(map[int64]*call),
		callTimeout: DefaultCallTimeout,
	}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	fr := NewReader(c.conn)
	for {
		payload, err := fr.ReadFrame()
		if err != nil {
			c.fail(err)
			return
		}
		c.m().FrameRecv(len(payload))
		_, _, text := SplitPayload(payload)
		cmd, err := cmdlang.ParseBytes(text)
		if err != nil {
			c.fail(err)
			return
		}
		seq := cmd.Int(cmdlang.SeqArg, -1)
		c.mu.Lock()
		w, ok := c.pending[seq]
		if ok {
			delete(c.pending, seq)
		}
		push := c.onPush
		c.mu.Unlock()
		switch {
		case ok:
			w.reply <- cmd
		case seq >= 0:
			// A reply whose call already gave up (deadline exceeded or
			// cancelled). Dropping it keeps late replies from
			// masquerading as server pushes.
		case push != nil:
			push(cmd)
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for seq, w := range c.pending {
		delete(c.pending, seq)
		close(w.reply)
	}
	c.closed = true
	c.conn.Close()
}

// Closed reports whether the connection has terminally failed (or was
// closed). A closed client is guaranteed never to write again.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Call sends the command and waits for its return command under the
// client's default call timeout. The "seq" argument is added
// automatically. A "fail" reply is converted to a
// *cmdlang.RemoteError; an "ok" reply is returned as-is so the caller
// can read result arguments.
func (c *Client) Call(cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return c.CallContext(context.Background(), cmd)
}

// CallContext is Call bounded by ctx. When ctx has no deadline, the
// client's call timeout applies, so no call can block forever.
// Cancellation abandons the call immediately and removes its pending
// sequence entry; a reply that arrives later is dropped.
func (c *Client) CallContext(ctx context.Context, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return c.CallDeadline(ctx, time.Time{}, cmd)
}

// CallDeadline is CallContext bounded by deadline as well as by ctx,
// for a caller that holds several attempts to one bound and would
// otherwise derive a context per call. A zero deadline means none
// beyond ctx's.
func (c *Client) CallDeadline(ctx context.Context, deadline time.Time, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	reply, err := c.roundTrip(ctx, deadline, cmd)
	if err != nil {
		return nil, err
	}
	if rerr := cmdlang.ReplyError(reply); rerr != nil {
		return nil, rerr
	}
	return reply, nil
}

// CallRaw is Call without reply-status interpretation: it returns
// whatever return command the daemon sent, including "fail".
func (c *Client) CallRaw(cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return c.roundTrip(context.Background(), time.Time{}, cmd)
}

// CallRawContext is CallRaw bounded by ctx (see CallContext). When
// ctx carries a telemetry span context, the outgoing frame carries a
// trace header for a fresh child span, so the receiving daemon's
// recorded span parents correctly under the caller's.
func (c *Client) CallRawContext(ctx context.Context, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	return c.roundTrip(ctx, time.Time{}, cmd)
}

// childSpan is the span context an outgoing frame carries: a fresh
// child of ctx's, or none.
func childSpan(ctx context.Context) telemetry.SpanContext {
	if sc := telemetry.FromContext(ctx); sc.Valid() {
		return sc.NewChild()
	}
	return telemetry.SpanContext{}
}

// roundTrip numbers cmd (on the wire only: cmd is the caller's and
// stays as it is), sends it and waits for the reply with that number,
// until ctx ends or the deadline passes — the given one, else ctx's,
// else the client's call timeout from now.
func (c *Client) roundTrip(ctx context.Context, deadline time.Time, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	seq := c.seq.Add(1)
	w := callPool.Get().(*call)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		callPool.Put(w)
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	timeout := c.callTimeout
	c.pending[seq] = w
	c.mu.Unlock()

	start := time.Now()
	// ctx.Done fires at ctx's own deadline; any other needs the timer.
	ownTimer := true
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline, ownTimer = d, false
	} else if deadline.IsZero() {
		deadline = start.Add(timeout)
	}

	if err := c.write(deadline, childSpan(ctx), hlc.FromContext(ctx), cmd, true, seq); err != nil {
		c.forget(seq)
		return nil, err
	}

	var expired <-chan time.Time
	if ownTimer {
		w.timer.Reset(deadline.Sub(start))
		expired = w.timer.C
	}
	for {
		select {
		case reply, ok := <-w.reply:
			if !ok {
				return nil, c.terminalErr()
			}
			if ownTimer {
				w.timer.Stop()
			}
			callPool.Put(w)
			c.m().CallDone(time.Since(start))
			return reply, nil
		case <-ctx.Done():
			if ownTimer {
				w.timer.Stop()
			}
			c.forget(seq)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				c.m().CallTimeout()
			}
			return nil, ctx.Err()
		case <-expired:
			if left := time.Until(deadline); left > 0 {
				w.timer.Reset(left) // the tick was the call's previous user's
				continue
			}
			c.forget(seq)
			c.m().CallTimeout()
			return nil, context.DeadlineExceeded
		}
	}
}

// forget abandons the call numbered seq; its reply, should one still
// come, is dropped by the reader.
func (c *Client) forget(seq int64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// write sends cmd as one frame under the deadline. An oversize command
// fails alone: nothing was written, so the connection carries on. Any
// other error is terminal for the whole connection: part of the frame
// may already be on the wire, so the framing stream can no longer be
// trusted.
func (c *Client) write(deadline time.Time, sc telemetry.SpanContext, ts hlc.Timestamp, cmd *cmdlang.CmdLine, numbered bool, seq int64) error {
	frame := encodeCmd(sc, ts, cmd, numbered, seq)
	c.writeMu.Lock()
	// Every write sets its own deadline first, so none is cleared after.
	c.conn.SetWriteDeadline(deadline) //nolint:errcheck — best effort on dying conns
	n, err := writeFrame(c.conn, frame)
	c.writeMu.Unlock()
	if err != nil {
		if _, tooLarge := err.(*ErrFrameTooLarge); !tooLarge {
			c.fail(err)
		}
		return err
	}
	c.m().FrameSent(n)
	return nil
}

func (c *Client) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		return ErrClosed
	}
	return c.err
}

// Send transmits a command without waiting for any reply (one-way
// notification delivery). The write is bounded by the client's call
// timeout. If Send returns ErrClosed, nothing was written; any other
// error means bytes may have reached the wire and the connection has
// been torn down.
func (c *Client) Send(cmd *cmdlang.CmdLine) error {
	return c.SendContext(context.Background(), cmd)
}

// SendContext is Send with a caller context: its deadline (if any)
// bounds the write, and a telemetry span context on it is propagated
// as a trace header (a fresh child span per delivery).
func (c *Client) SendContext(ctx context.Context, cmd *cmdlang.CmdLine) error {
	c.mu.Lock()
	closed, timeout := c.closed, c.callTimeout
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(timeout)
	}
	return c.write(deadline, childSpan(ctx), hlc.FromContext(ctx), cmd, false, 0)
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Err returns the terminal error of the connection, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == ErrClosed {
		return nil
	}
	return c.err
}
