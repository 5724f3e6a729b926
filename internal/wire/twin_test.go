//go:build linux

package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
)

// TestTwinPeerRule: a twin peer of another user is refused. A real
// second uid needs root, so the refusal is tested here on the rule
// alone, not end to end.
func TestTwinPeerRule(t *testing.T) {
	uid := os.Getuid()
	if twinAdmits(uid+1, uid) {
		t.Fatalf("a peer of uid %d admitted by uid %d", uid+1, uid)
	}
	if !twinAdmits(uid, uid) {
		t.Fatal("a peer of the own uid refused")
	}
}

// dialCounted dials addr with a registry of its own, and returns the
// client and how many of its dials took a twin.
func dialCounted(t *testing.T, addr string) (*Client, int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	c, err := DialContext(context.Background(), nil, addr, 0, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg.Counter(MetricDialsLocal).Value()
}

// stalledTwin is a loopback TCP listener with a twin whose connections
// are accepted and never read.
func stalledTwin(t *testing.T) string {
	t.Helper()
	ln := listen(t)
	tw, err := ListenTwin(ln)
	if err != nil || tw == nil {
		t.Fatalf("ListenTwin(%s) = %v, %v", ln.Addr(), tw, err)
	}
	done := make(chan []net.Conn)
	go func() {
		var held []net.Conn
		for {
			c, err := tw.Accept()
			if err != nil {
				done <- held
				return
			}
			held = append(held, c)
		}
	}()
	t.Cleanup(func() {
		tw.Close()
		for _, c := range <-done {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestTwinUnansweredNeverBlocks: on a twin to a peer that reads
// nothing, with the send buffer a kernel grants anyone (Linux's default
// net.core.wmem_max), Start's and Tell's smallest store frames are
// queued once the socket is full, and refused with errUnanswered past
// their bound, each at once: no write waits for the peer, and the
// connection stays open.
func TestTwinUnansweredNeverBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(c *Client, sink chan Result) error
	}{
		{"start psget", func(c *Client, sink chan Result) error {
			_, err := c.Start(context.Background(), cmdlang.New("psget").SetString("path", "/"), sink, 0)
			return err
		}},
		{"tell psput", func(c *Client, _ chan Result) error {
			return c.Tell(context.Background(),
				cmdlang.New("psput").SetString("path", "/").SetBytes("value", nil).SetInt("version", 1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			c, err := DialContext(context.Background(), nil, stalledTwin(t), 0, NewMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if local := reg.Counter(MetricDialsLocal).Value(); local != 1 {
				t.Fatalf("dial to a loopback port with a twin: %d twin dials, want 1", local)
			}
			if err := c.out.Conn.(*net.UnixConn).SetWriteBuffer(212992); err != nil {
				t.Fatal(err)
			}
			const most = 1 << 16
			sink := make(chan Result, most)
			sent := 0
			start := time.Now()
			for ; sent < most; sent++ {
				err := tc.send(c, sink)
				if errors.Is(err, errUnanswered) {
					break
				}
				if err != nil {
					t.Fatalf("frame %d: %v", sent, err)
				}
			}
			if sent == most {
				t.Fatalf("%d frames to a peer that reads nothing, none refused", sent)
			}
			if took := time.Since(start); took > DefaultCallTimeout/2 {
				t.Fatalf("%d frames took %v: a write waited for the peer", sent, took)
			}
			if len(sink) != 0 || c.Closed() {
				t.Fatalf("after %d frames the connection failed", sent)
			}
			if reg.Counter(MetricFramesQueued).Value() == 0 {
				t.Fatal("refused with nothing queued")
			}
		})
	}
}

// TestLoopbackWithoutTwinDialsTCP: a loopback port with no twin, a
// plain TCP server, is dialed over TCP and answers as before.
func TestLoopbackWithoutTwinDialsTCP(t *testing.T) {
	ln := listen(t)
	echoServer(t, ln, nil)
	c, local := dialCounted(t, ln.Addr().String())
	if local != 0 {
		t.Fatalf("%d twin dials to a port without a twin", local)
	}
	if _, err := c.Call(cmdlang.New("ping")); err != nil {
		t.Fatal(err)
	}
}

// TestListenTwinRefusesHeldName: a port's twin is not opened when its
// name is held already, whose holder would take the port's same-host
// clients.
func TestListenTwinRefusesHeldName(t *testing.T) {
	ln := listen(t)
	holder, err := net.Listen("unix", twinName(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if tw, err := ListenTwin(ln); err == nil {
		tw.Close()
		t.Fatalf("ListenTwin(%s) with its name held: no error", ln.Addr())
	}
}
