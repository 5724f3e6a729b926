package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"ace/internal/telemetry"
)

// socketPair returns the two ends of a connected Unix stream socket.
func socketPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ends [2]net.Conn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		c, err := net.FileConn(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ends[i] = c
	}
	return ends[0], ends[1]
}

// pairClient is a Client on one end of a socket pair, and the other end.
func pairClient(t *testing.T) (*Client, net.Conn) {
	t.Helper()
	a, b := socketPair(t)
	out := NewOutbox(a, DefaultCallTimeout, nil)
	c := newClient(out, out, DefaultCallTimeout, nil)
	t.Cleanup(func() { c.Close() })
	return c, b
}

// TestOutboxKeepsEachWritersFramesWholeAndInOrder: eight goroutines
// write frames to one Outbox whose peer reads slowly, so that most of
// them are queued, and the peer reads every frame whole and each
// writer's frames in the order it wrote them.
func TestOutboxKeepsEachWritersFramesWholeAndInOrder(t *testing.T) {
	const writers, frames = 8, 400
	a, b := socketPair(t)
	reg := telemetry.NewRegistry()
	out := NewOutbox(a, DefaultCallTimeout, NewMetrics(reg))
	pad := make([]byte, 900)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := WriteFrame(out, fmt.Appendf(nil, "%d %d %s", w, i, pad)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	next := make([]int, writers)
	in := NewReader(b)
	for n := 0; n < writers*frames; n++ {
		if n%64 == 0 {
			time.Sleep(time.Millisecond) // a peer that falls behind
		}
		payload, err := in.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		var w, i int
		var rest string
		if _, err := fmt.Sscanf(string(payload), "%d %d %s", &w, &i, &rest); err != nil || len(rest) != len(pad) {
			t.Fatalf("frame %d is not whole: %q", n, payload)
		}
		if i != next[w] {
			t.Fatalf("writer %d: frame %d arrived where %d was due", w, i, next[w])
		}
		next[w]++
	}
	wg.Wait()
	if reg.Snapshot().Counter(MetricFramesQueued) == 0 {
		t.Fatal("the socket took every frame whole: nothing was queued")
	}
}

// TestFailedDrainWritesNothingMore: a drain write that fails, here by
// its deadline to a peer that reads nothing, closes the connection, so
// no frame written after it reaches the peer, and every later Write
// returns the error.
func TestFailedDrainWritesNothingMore(t *testing.T) {
	a, b := socketPair(t)
	out := NewOutbox(a, 50*time.Millisecond, nil)
	frame := make([]byte, 4<<10)
	for out.queued.Load() == 0 {
		if err := WriteFrame(out, frame); err != nil {
			t.Fatal(err)
		}
	}
	var failed error
	for start := time.Now(); failed == nil; time.Sleep(10 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the drain to a peer that reads nothing never failed")
		}
		failed = WriteFrame(out, frame)
	}
	if err := WriteFrame(out, []byte("late;")); !errors.Is(err, failed) {
		t.Fatalf("a Write after the failure: %v, want %v", err, failed)
	}
	in := NewReader(b)
	for {
		payload, err := in.ReadFrame()
		if err != nil {
			break // the stream ends, at a frame's end or inside one
		}
		if len(payload) != len(frame) {
			t.Fatalf("the peer read a %d-byte frame written after the failure", len(payload))
		}
	}
}

// TestDrainClearsItsWriteDeadline: once the drain has emptied the
// queue, a frame written after the drain's deadline has passed goes
// out: the deadline that held the drain's writes is not left armed for
// the next inline write.
func TestDrainClearsItsWriteDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	a, b := socketPair(t)
	out := NewOutbox(a, timeout, nil)
	frame := make([]byte, 4<<10)
	for out.queued.Load() == 0 {
		if err := WriteFrame(out, frame); err != nil {
			t.Fatal(err)
		}
	}
	go io.Copy(io.Discard, b) //nolint:errcheck — drains until the test closes the pair
	for start := time.Now(); out.queued.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the drain to a reading peer never emptied the queue")
		}
	}
	time.Sleep(2 * timeout)
	if err := WriteFrame(out, []byte("ping;")); err != nil {
		t.Fatalf("a write after the drain's deadline: %v", err)
	}
}
