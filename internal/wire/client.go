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
	conn net.Conn // out, or TLS over it
	out  *Outbox

	mu      sync.Mutex
	pending map[int64]started
	err     error
	closed  bool

	// sweep ends the blocking calls whose deadline the client owns (see
	// RoundTrip). It is armed at sweepAt, no later than the earliest of
	// their deadlines; zero sweepAt: not armed. sweepAt is under mu.
	sweep   *time.Timer
	sweepAt time.Time

	seq atomic.Int64

	callTimeout time.Duration
	metrics     *Metrics // nil records nothing
}

// Result is the outcome of a started call: its reply, or the error
// that ended the connection under it. Tag is the caller's, given to
// Start.
type Result struct {
	Reply *cmdlang.CmdLine
	Err   error
	Tag   int
}

// started is a call waiting for its reply: where its Result goes, when
// the call was written, for wire.call.latency, and the deadline at which
// the sweep ends it (zero: its owner ends it). The pending table holds
// it by value, so a call costs the table no allocation.
type started struct {
	sink     chan<- Result
	tag      int
	start    time.Time
	deadline time.Time
}

// resultPool recycles what a blocking call waits on: a channel of one
// slot, since a call gets exactly one Result. One goes back once no
// Result can still arrive on it.
var resultPool = sync.Pool{New: func() any { return make(chan Result, 1) }}

// Dial connects to a daemon command port using the transport's TLS
// client configuration (or plaintext when the transport is nil or
// plaintext). Its calls default to DefaultCallTimeout and record no
// metrics.
func Dial(t *Transport, addr string) (*Client, error) {
	return DialContext(context.Background(), t, addr, DefaultCallTimeout, nil)
}

// DialContext is Dial bounded by ctx; when ctx carries no deadline
// DefaultDialTimeout applies. callTimeout is the deadline of a call
// whose context has none (<= 0: DefaultCallTimeout), and m records the
// connection's traffic (nil: nothing).
func DialContext(ctx context.Context, t *Transport, addr string, callTimeout time.Duration, m *Metrics) (*Client, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultDialTimeout)
		defer cancel()
	}
	raw := dialTwin(ctx, addr, m)
	if raw == nil {
		var d net.Dialer
		var err error
		if raw, err = d.DialContext(ctx, "tcp", addr); err != nil {
			return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
		}
	}
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	out := NewOutbox(raw, callTimeout, m)
	var conn net.Conn = out
	if cfg := t.ClientConfig(""); cfg != nil {
		tc := tls.Client(out, cfg)
		if err := tc.HandshakeContext(ctx); err != nil {
			raw.Close()
			return nil, fmt.Errorf("wire: TLS handshake with %s: %w", addr, err)
		}
		conn = tc
	}
	return newClient(conn, out, callTimeout, m), nil
}

// newClient wraps an established connection, out or TLS over it, and
// starts the reader goroutine.
func newClient(conn net.Conn, out *Outbox, callTimeout time.Duration, m *Metrics) *Client {
	c := &Client{
		conn:        conn,
		out:         out,
		pending:     make(map[int64]started),
		callTimeout: callTimeout,
		metrics:     m,
	}
	c.sweep = time.AfterFunc(time.Hour, c.sweepDue)
	c.sweep.Stop()
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
		c.metrics.FrameRecv(len(payload))
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
		c.mu.Unlock()
		// A frame no call waits for is dropped: a reply whose call gave
		// up (deadline exceeded or cancelled), or an unnumbered one,
		// such as a daemon's answer to a line it could not parse.
		if ok {
			c.metrics.CallDone(time.Since(w.start))
			w.sink <- Result{Reply: cmd, Tag: w.tag}
		}
	}
}

// fail ends the connection: every started call is sent the error, and
// the sweep stops.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	ended := make([]started, 0, len(c.pending))
	for seq, w := range c.pending {
		delete(c.pending, seq)
		ended = append(ended, w)
	}
	c.closed = true
	c.sweep.Stop()
	c.conn.Close()
	c.mu.Unlock()
	for _, w := range ended {
		w.sink <- Result{Err: err, Tag: w.tag}
	}
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
// sequence entry; a reply that arrives later is dropped. A call that
// times out is counted in wire.call.timeouts.
func (c *Client) CallContext(ctx context.Context, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	reply, err := c.RoundTrip(ctx, time.Time{}, cmd)
	if err == nil {
		err = cmdlang.ReplyError(reply)
	} else if errors.Is(err, context.DeadlineExceeded) {
		c.metrics.CallTimeout()
	}
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// childSpan is the span context an outgoing frame carries: a fresh
// child of ctx's, or none.
func childSpan(ctx context.Context) telemetry.SpanContext {
	if sc := telemetry.FromContext(ctx); sc.Valid() {
		return sc.NewChild()
	}
	return telemetry.SpanContext{}
}

// Start numbers cmd (on the wire only: cmd is the caller's and stays as
// it is), sends it and returns its number without waiting for the
// reply or for the peer to read it. A started call has no timer, and
// ends when its owner says so.
//
// Exactly one Result then arrives on sink under tag: the reply, or the
// error that ended the connection (a failed write included), unless
// Cancel(seq) returns true first. The reader delivers while every other
// reply on the connection waits, so sink must have room for it. An
// error from Start means nothing was written and nothing will arrive:
// the connection was already closed, the command does not fit a frame,
// or more than maxQueued bytes wait in the connection's Outbox: Start
// adds nothing to a peer that reads slower than it is written to.
func (c *Client) Start(ctx context.Context, cmd *cmdlang.CmdLine, sink chan<- Result, tag int) (int64, error) {
	if c.out.queued.Load() > maxQueued {
		return 0, errUnanswered
	}
	return c.start(ctx, time.Time{}, cmd, sink, tag)
}

// start is Start for any caller: the sweep ends the call at sweepAt,
// unless that is zero.
func (c *Client) start(ctx context.Context, sweepAt time.Time, cmd *cmdlang.CmdLine, sink chan<- Result, tag int) (int64, error) {
	seq := c.seq.Add(1)
	now := time.Now()
	w := started{sink: sink, tag: tag, start: now, deadline: sweepAt}
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	c.pending[seq] = w
	if !w.deadline.IsZero() && (c.sweepAt.IsZero() || w.deadline.Before(c.sweepAt)) {
		c.sweepAt = w.deadline
		c.sweep.Reset(w.deadline.Sub(now))
	}
	c.mu.Unlock()
	err := c.write(childSpan(ctx), cmd, true, seq)
	if _, tooLarge := err.(*ErrFrameTooLarge); tooLarge {
		c.Cancel(seq)
		return 0, err
	}
	// A failed write failed the connection, which sent the call its
	// Result.
	return seq, nil
}

// sweepDue ends every pending call the sweep enforces whose deadline
// has passed, with context.DeadlineExceeded, and arms the sweep at the
// earliest deadline left, if any. A call ends once: whoever takes it
// out of the pending table under c.mu sends its Result. A run that
// finds nothing due (it was armed for a call that has since ended) only
// re-arms.
func (c *Client) sweepDue() {
	var ended []started
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	var next time.Time
	for seq, w := range c.pending {
		switch {
		case w.deadline.IsZero():
		case !now.Before(w.deadline):
			delete(c.pending, seq)
			ended = append(ended, w)
		case next.IsZero() || w.deadline.Before(next):
			next = w.deadline
		}
	}
	c.sweepAt = next
	if !next.IsZero() {
		c.sweep.Reset(next.Sub(now))
	}
	c.mu.Unlock()
	for _, w := range ended {
		w.sink <- Result{Err: context.DeadlineExceeded, Tag: w.tag}
	}
}

// Cancel gives up the started call numbered seq: its reply, should one
// still come, is dropped by the reader. It reports whether the call was
// still pending; false means its Result is on its way to the sink, or
// there already.
func (c *Client) Cancel(seq int64) bool {
	c.mu.Lock()
	_, pending := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	return pending
}

// RoundTrip sends cmd and waits for the return command the daemon sent,
// "fail" included, until ctx ends or the deadline passes — the sooner of
// the given one (zero: none) and ctx's, else the client's call timeout
// from now. It is the blocking call of a caller that holds several
// attempts to one bound and accounts their outcomes itself: it counts no
// timeout. When ctx carries a telemetry span context, the frame carries
// a trace header for a fresh child span of it.
func (c *Client) RoundTrip(ctx context.Context, deadline time.Time, cmd *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
	switch d, ok := ctx.Deadline(); {
	case ok && (deadline.IsZero() || !deadline.Before(d)):
		deadline = time.Time{} // ctx.Done ends the call; no sweep needed
	case deadline.IsZero():
		deadline = time.Now().Add(c.callTimeout)
	}
	result := resultPool.Get().(chan Result)
	seq, err := c.start(ctx, deadline, cmd, result, 0)
	if err != nil {
		resultPool.Put(result)
		return nil, err
	}
	select {
	case r := <-result:
		resultPool.Put(result)
		return r.Reply, r.Err
	case <-ctx.Done():
		// A Result already on its way is taken first, so that the
		// channel goes back empty.
		if !c.Cancel(seq) {
			<-result
		}
		resultPool.Put(result)
		return nil, ctx.Err()
	}
}

// write sends cmd as one frame through the connection's Outbox, which
// never waits for the peer. An oversize command fails alone: nothing
// was written, so the connection carries on. Any other error is
// terminal for the whole connection: part of the frame may already be
// on the wire, so the framing stream can no longer be trusted.
func (c *Client) write(sc telemetry.SpanContext, cmd *cmdlang.CmdLine, numbered bool, seq int64) error {
	n, err := writeFrame(c.conn, encodeCmd(sc, cmd, numbered, seq))
	if err != nil {
		if _, tooLarge := err.(*ErrFrameTooLarge); !tooLarge {
			c.fail(err)
		}
		return err
	}
	c.metrics.FrameSent(n)
	return nil
}

// Send transmits a command without waiting for any reply (one-way
// notification delivery). If Send returns ErrClosed, nothing was
// written; any other error means bytes may have reached the wire and
// the connection has been torn down.
func (c *Client) Send(cmd *cmdlang.CmdLine) error {
	return c.SendContext(context.Background(), cmd)
}

// SendContext is Send with a caller context: a telemetry span context
// on it is propagated as a trace header (a fresh child span per
// delivery).
func (c *Client) SendContext(ctx context.Context, cmd *cmdlang.CmdLine) error {
	if c.Closed() {
		return ErrClosed
	}
	return c.write(childSpan(ctx), cmd, false, 0)
}

// Tell is Send for a caller that writes beside its started calls: cmd
// goes out unnumbered, a one-way frame the peer answers with nothing.
// Like Start, Tell refuses a peer that reads slower than it is written
// to, but at half of Start's bound, so that a replica that is only told
// things is sent a call in place before Start would refuse it. An error
// means the frame may not have arrived whole: the connection was closed
// already, too much waits in its Outbox, the command does not fit a
// frame, or the write failed, which failed the connection.
func (c *Client) Tell(ctx context.Context, cmd *cmdlang.CmdLine) error {
	if c.out.queued.Load() > maxQueued/2 {
		return errUnanswered
	}
	return c.SendContext(ctx, cmd)
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}
