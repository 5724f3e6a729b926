package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxQueued bounds the bytes an Outbox holds for a peer that reads
// slower than it is written to: past it Start refuses (Tell past half
// of it), and a daemon's command thread reads no further command. A
// peer that is only behind, such as a store replica answering in bursts
// after its group commits, leaves its backlog in the socket buffers.
const maxQueued = 256 << 10

// errUnanswered is Start's refusal of a connection whose Outbox holds
// more than maxQueued bytes.
var errUnanswered = errors.New("wire: peer has not read what it was sent")

// Outbox is the write side of one command connection, the net.Conn that
// frames (or TLS records) are written to; reads, addresses and Close
// pass through to the socket. A Write never waits for the peer: when
// nothing is queued it makes one non-blocking write(2), and it copies
// what the socket did not take onto a queue, which a goroutine drains
// in order, each write held to a deadline of the connection's call
// timeout. Each Write is written or queued whole before the next. A
// failed write closes the socket, every later Write returns its error,
// and the reader at each end fails the connection on its next read.
type Outbox struct {
	net.Conn
	rc      syscall.RawConn
	timeout time.Duration
	metrics *Metrics

	mu       sync.Mutex
	drained  sync.Cond // on mu: queued fell, or err was set
	queue    net.Buffers
	queued   atomic.Int64 // bytes in queue and in the drain's batch
	err      error
	rawWrite func(fd uintptr) bool // built once: a closure per write would allocate
	p        []byte                // rawWrite's bytes, and what it did with them
	n        int
	errno    error
}

// NewOutbox returns the Outbox of conn, which must be a socket (a
// syscall.Conn), whose drain writes are held to timeout, and counts
// queued frames in m (nil: nowhere).
func NewOutbox(conn net.Conn, timeout time.Duration, m *Metrics) *Outbox {
	rc, _ := conn.(syscall.Conn).SyscallConn() // fails only for a nil socket
	o := &Outbox{Conn: conn, rc: rc, timeout: timeout, metrics: m}
	o.drained.L = &o.mu
	o.rawWrite = func(fd uintptr) bool {
		o.n, o.errno = syscall.Write(int(fd), o.p)
		return true // never waits for the socket to take more
	}
	return o
}

// Write sends p, or queues what the socket does not take of it, and
// returns len(p), or the error that failed the connection.
func (o *Outbox) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return 0, o.err
	}
	n := 0
	if o.queued.Load() == 0 {
		o.p = p
		err := o.rc.Write(o.rawWrite)
		o.p = nil
		if n = max(o.n, 0); err == nil && o.errno != syscall.EAGAIN && o.errno != syscall.EINTR {
			err = o.errno
		}
		if err != nil {
			o.fail(err)
			return 0, err
		}
		if n == len(p) {
			return n, nil
		}
		go o.drain() // nothing was queued, so none runs; it waits for mu
	}
	o.queue = append(o.queue, append([]byte(nil), p[n:]...))
	o.queued.Add(int64(len(p) - n))
	if o.metrics != nil {
		o.metrics.queued.Inc()
	}
	return len(p), nil
}

// drain writes the queue until it is empty, then clears the write
// deadline, which would otherwise fail the next inline write.
func (o *Outbox) drain() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.queue) > 0 && o.err == nil {
		batch := o.queue
		o.queue = nil
		o.mu.Unlock()
		err := o.Conn.SetWriteDeadline(time.Now().Add(o.timeout))
		var sent int64
		if err == nil {
			sent, err = batch.WriteTo(o.Conn)
		}
		o.mu.Lock()
		o.queued.Add(-sent)
		if err != nil {
			o.fail(err)
		}
		o.drained.Broadcast()
	}
	o.Conn.SetWriteDeadline(time.Time{}) //nolint:errcheck — a closed socket needs none
}

// fail records err, closes the socket and drops the queue. It runs
// under mu.
func (o *Outbox) fail(err error) {
	if o.err == nil {
		o.err = err
	}
	o.Conn.Close()
	o.queue = nil
	o.queued.Store(0)
	o.drained.Broadcast()
}

// Wait returns once o holds no more than maxQueued bytes, or has
// failed; the drain's deadline bounds it.
func (o *Outbox) Wait() {
	if o.queued.Load() <= maxQueued {
		return
	}
	o.mu.Lock()
	for o.queued.Load() > maxQueued && o.err == nil {
		o.drained.Wait()
	}
	o.mu.Unlock()
}
