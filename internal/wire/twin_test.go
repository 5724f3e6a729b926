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

// TestTwinPeerRule: a twin peer of another user is refused, and so is a
// twin whose send buffer the kernel left at its default (Linux's
// net.core.wmem_default, 208 KiB). A real second uid needs root, so the
// refusal is tested here on the rule alone, not end to end.
func TestTwinPeerRule(t *testing.T) {
	uid := os.Getuid()
	if twinAdmits(uid+1, uid, 2*twinSndBuf) {
		t.Fatalf("a peer of uid %d admitted by uid %d", uid+1, uid)
	}
	if twinAdmits(uid, uid, 212992) {
		t.Fatal("a twin admitted with the default send buffer")
	}
	if !twinAdmits(uid, uid, 2*twinSndBuf) {
		t.Fatal("own uid and the granted buffer refused")
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

// needTwins skips a test of twins where the kernel grants a Unix socket
// too little send buffer to have any (see Twins).
func needTwins(t *testing.T) {
	t.Helper()
	if !Twins() {
		t.Skip("no twins: net.core.wmem_max is below 4 MiB, so every dial is TCP")
	}
}

// stalledTwin is a loopback TCP listener with a twin whose connections
// are accepted and never read.
func stalledTwin(t *testing.T) string {
	t.Helper()
	needTwins(t)
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
// nothing, Start's and Tell's smallest store frames are refused with
// errUnanswered before a write finds the send buffer full. Counted in
// payload bytes against maxUnanswered, or with the send buffer left at
// its default, the writes block until their deadline and fail the
// connection.
func TestTwinUnansweredNeverBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(c *Client, sink chan Result, deadline time.Time) error
	}{
		{"start psget", func(c *Client, sink chan Result, deadline time.Time) error {
			_, err := c.Start(context.Background(), deadline, cmdlang.New("psget").SetString("path", "/"), sink, 0)
			return err
		}},
		{"tell psput", func(c *Client, _ chan Result, deadline time.Time) error {
			return c.Tell(context.Background(), deadline,
				cmdlang.New("psput").SetString("path", "/").SetBytes("value", nil).SetInt("version", 1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, local := dialCounted(t, stalledTwin(t))
			if local != 1 {
				t.Fatalf("dial to a loopback port with a twin: %d twin dials, want 1", local)
			}
			const most = 1 << 15
			sink := make(chan Result, most)
			sent := 0
			for ; sent < most; sent++ {
				err := tc.send(c, sink, time.Now().Add(time.Second))
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
			if len(sink) != 0 || c.Closed() {
				r := <-sink
				t.Fatalf("after %d frames the connection failed (%v): a write blocked", sent, r.Err)
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
	needTwins(t)
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

// TestNoTwinsWithoutTheGrant: where the kernel grants too little send
// buffer (twins probed false), a loopback port gets no twin and a dial
// to it is TCP, as on a platform without twins.
func TestNoTwinsWithoutTheGrant(t *testing.T) {
	defer func(probed func() bool) { twins = probed }(twins)
	twins = func() bool { return false }
	ln := listen(t)
	if tw, err := ListenTwin(ln); tw != nil || err != nil {
		t.Fatalf("ListenTwin without twins = %v, %v; want nil, nil", tw, err)
	}
	echoServer(t, ln, nil)
	c, local := dialCounted(t, ln.Addr().String())
	if local != 0 {
		t.Fatalf("%d twin dials without twins", local)
	}
	if _, err := c.Call(cmdlang.New("ping")); err != nil {
		t.Fatal(err)
	}
}
