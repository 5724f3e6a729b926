package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ace/internal/cmdlang"
)

// stallServer accepts connections and reads frames forever without
// ever replying — the "peer stalls" failure mode.
func stallServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestCallAgainstStalledServerFailsFast: a server that accepts but
// never replies must surface context.DeadlineExceeded within the
// call deadline instead of hanging forever.
func TestCallAgainstStalledServerFailsFast(t *testing.T) {
	ln := stallServer(t)
	defer ln.Close()

	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.CallContext(ctx, cmdlang.New("ping"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("call took %v; deadline not enforced", elapsed)
	}
	// The abandoned call must not leak its pending entry.
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
}

// TestCallDefaultTimeoutApplies: with no context deadline at all, the
// client's own call timeout bounds the exchange.
func TestCallDefaultTimeoutApplies(t *testing.T) {
	ln := stallServer(t)
	defer ln.Close()

	c, err := DialContext(context.Background(), nil, ln.Addr().String(), 100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call(cmdlang.New("ping"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("default call timeout not enforced")
	}
}

// TestCallCancellationRemovesPending: cancelling a call abandons it
// immediately and a late reply is dropped, not delivered to the next
// call.
func TestCallCancellationRemovesPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		cmd, err := ReadCmd(conn)
		if err != nil {
			return
		}
		<-release                                                                       // reply only after the caller gave up
		WriteCmd(conn, cmdlang.OK().SetInt(cmdlang.SeqArg, cmd.Int(cmdlang.SeqArg, 0))) //nolint:errcheck
		// Then answer a second, live call.
		cmd2, err := ReadCmd(conn)
		if err != nil {
			return
		}
		WriteCmd(conn, cmdlang.OK().SetInt(cmdlang.SeqArg, cmd2.Int(cmdlang.SeqArg, 0)).SetWord("echo", cmd2.Name())) //nolint:errcheck
	}()

	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := c.CallContext(ctx, cmdlang.New("slow")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending entries leaked after cancel: %d", n)
	}

	close(release) // late reply for the cancelled seq arrives now
	reply, err := c.Call(cmdlang.New("live"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Str("echo", "") != "live" {
		t.Fatalf("live call corrupted by late reply: %v", reply)
	}
}

// TestDialAbortsOnCancelledContext: an already-expired context aborts
// the dial immediately.
func TestDialAbortsOnCancelledContext(t *testing.T) {
	ln := stallServer(t)
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, nil, ln.Addr().String(), 0, nil); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	}
}

// TestSendErrClosedMeansNothingWritten: Send on an already-failed
// client reports ErrClosed without touching the socket — the contract
// Pool.Send's at-least-once retry relies on.
func TestSendErrClosedMeansNothingWritten(t *testing.T) {
	c, _ := pairClient(t)
	c.Close()
	if err := c.Send(cmdlang.New("notify")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
