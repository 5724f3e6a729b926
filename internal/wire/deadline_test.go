package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
)

// TestSweepEndsEachCallAtItsOwnDeadline: the one sweep of a client ends
// each blocking call whose deadline it owns at that deadline, whether
// the call was started before or after calls that end later, and counts
// each ended call once in wire.call.timeouts; Close leaves no sweep
// armed.
func TestSweepEndsEachCallAtItsOwnDeadline(t *testing.T) {
	ln := stallServer(t)
	defer ln.Close()
	const short, long = 50 * time.Millisecond, 10 * time.Second
	reg := telemetry.NewRegistry()
	// Calls through CallContext carry no ctx deadline, so the client's
	// call timeout, short, is theirs; long calls pass their own.
	c, err := DialContext(context.Background(), nil, ln.Addr().String(), short, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	longDone := make(chan error, 4)
	startLong := func() {
		go func() {
			_, err := c.RoundTrip(context.Background(), time.Now().Add(long), cmdlang.New("slow"))
			longDone <- err
		}()
	}
	waitPending := func(n int) {
		t.Helper()
		for start := time.Now(); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			got := len(c.pending)
			c.mu.Unlock()
			if got == n {
				return
			}
			if time.Since(start) > 5*time.Second {
				t.Fatalf("%d calls pending, want %d", got, n)
			}
		}
	}
	shortCall := func() time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := c.CallContext(context.Background(), cmdlang.New("quick")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("short call: want DeadlineExceeded, got %v", err)
		}
		return time.Since(start)
	}

	// A short call started after long ones ends at its own deadline.
	startLong()
	startLong()
	waitPending(2)
	if took := shortCall(); took < short || took > time.Second {
		t.Fatalf("a %v call started after %v calls ended after %v", short, long, took)
	}

	// A long call started after a short one outlives it.
	shortDone := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		_, err := c.CallContext(context.Background(), cmdlang.New("quick"))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("short call: want DeadlineExceeded, got %v", err)
		}
		shortDone <- time.Since(start)
	}()
	waitPending(3)
	startLong()
	waitPending(4)
	time.Sleep(2 * short)
	select {
	case err := <-longDone:
		t.Fatalf("a %v call ended after %v: %v", long, 2*short, err)
	default:
	}
	if took := <-shortDone; took < short || took > time.Second {
		t.Fatalf("a %v call started before a %v call ended after %v", short, long, took)
	}
	waitPending(3)
	c.mu.Lock()
	rearmed := !c.sweepAt.IsZero()
	c.mu.Unlock()
	if !rearmed {
		t.Fatal("the sweep fired and left the long calls without one")
	}

	if got := reg.Snapshot().Counter(MetricCallTimeouts); got != 2 {
		t.Fatalf("wire.call.timeouts = %d, want 2", got)
	}
	c.Close()
	for i := 0; i < 3; i++ {
		if err := <-longDone; !errors.Is(err, ErrClosed) {
			t.Fatalf("long call after Close: %v", err)
		}
	}
	if c.sweep.Stop() {
		t.Fatal("Close left the sweep armed")
	}
}

// deadlineCounter is a TCP connection that counts the write deadlines
// armed on it.
type deadlineCounter struct {
	*net.TCPConn
	armed atomic.Int64
}

func (c *deadlineCounter) SetWriteDeadline(t time.Time) error {
	c.armed.Add(1)
	return c.TCPConn.SetWriteDeadline(t)
}

// TestCallsArmTheWriteDeadlineRarely: a client's calls to a peer that
// reads them arm no write deadline: the socket takes each frame whole,
// and only a drain of frames it did not take arms one.
func TestCallsArmTheWriteDeadlineRarely(t *testing.T) {
	ln := listen(t)
	echoServer(t, ln, nil)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &deadlineCounter{TCPConn: raw.(*net.TCPConn)}
	out := NewOutbox(conn, DefaultCallTimeout, nil)
	c := newClient(out, out, DefaultCallTimeout, nil)
	defer c.Close()
	for i := 0; i < 1000; i++ {
		if _, err := c.Call(cmdlang.New("ping")); err != nil {
			t.Fatal(err)
		}
	}
	if n := conn.armed.Load(); n != 0 {
		t.Fatalf("1000 calls armed the write deadline %d times", n)
	}
}
