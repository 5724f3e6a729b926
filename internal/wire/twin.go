package wire

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// A twin's ends ask for twinSndBuf of send buffer, and the kernel
// charges each frame on it up to twinFrameCharge beyond its payload
// (see maxUnanswered).
const (
	twinSndBuf      = 4 << 20
	twinFrameCharge = 1 << 10
)

// twins is probed once per process, and false where the platform has
// none or the kernel grants less send buffer than a twin asks for
// (net.core.wmem_max below 4 MiB): then every dial is TCP.
var twins = sync.OnceValue(probeTwins)

// Twins reports whether this process's loopback ports have twins.
func Twins() bool { return twins() }

// twinName is the abstract socket name of the twin of the command port
// at addr, in the form a listener gives its own address.
func twinName(addr string) string { return "@ace/" + addr }

// loopbackAddr is addr as a listener on it gives its own address, or
// "" when its host is not a loopback IP literal or there are no twins.
func loopbackAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if ip := net.ParseIP(host); err == nil && ip != nil && ip.IsLoopback() && twins() {
		return net.JoinHostPort(ip.String(), port)
	}
	return ""
}

// twinAdmits is the rule both ends of a twin apply before a frame
// crosses: the peer runs as uid, and the kernel granted the send buffer
// asked for (Linux books twice that, up to net.core.wmem_max).
func twinAdmits(peerUID, uid, granted int) bool {
	return peerUID == uid && granted >= 2*twinSndBuf
}

// ListenTwin opens the twin of ln, a TCP command port: an abstract Unix
// socket named after ln's address, which a dial to it takes before TCP.
// It returns nil when ln is not on a loopback IP or there are no twins,
// and an error when the name is held already, whose holder would take
// the port's same-host clients. Peers are admitted by openTwin, each
// with RemoteAddr "unix:pid=<pid>".
func ListenTwin(ln net.Listener) (net.Listener, error) {
	addr := loopbackAddr(ln.Addr().String())
	if addr == "" {
		return nil, nil
	}
	tw, err := net.ListenUnix("unix", &net.UnixAddr{Name: twinName(addr), Net: "unix"})
	if err != nil {
		return nil, fmt.Errorf("wire: twin of %s: %w", addr, err)
	}
	return twinListener{tw}, nil
}

type twinListener struct{ *net.UnixListener }

func (l twinListener) Accept() (net.Conn, error) {
	for {
		c, err := l.AcceptUnix()
		if err != nil {
			return nil, err
		}
		if pid, ok := openTwin(c); ok {
			return twinConn{c, &net.UnixAddr{Name: "unix:pid=" + strconv.Itoa(pid), Net: "unix"}}, nil
		}
		c.Close()
	}
}

type twinConn struct {
	*net.UnixConn
	peer *net.UnixAddr
}

func (c twinConn) RemoteAddr() net.Addr { return c.peer }

// dialTwin connects to the twin of the command port at addr, or returns
// nil when it has none or the twin fails openTwin's checks.
func dialTwin(ctx context.Context, addr string, m *Metrics) net.Conn {
	a := loopbackAddr(addr)
	if a == "" {
		return nil
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "unix", twinName(a))
	if err != nil {
		return nil
	}
	if _, ok := openTwin(c.(*net.UnixConn)); !ok {
		c.Close()
		return nil
	}
	if m != nil {
		m.dialsLocal.Inc()
	}
	return c
}
