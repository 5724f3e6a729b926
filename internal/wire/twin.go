package wire

import (
	"context"
	"fmt"
	"net"
	"strconv"
)

// twinName is the abstract socket name of the twin of the command port
// at addr, in the form a listener gives its own address.
func twinName(addr string) string { return "@ace/" + addr }

// loopbackAddr is addr as a listener on it gives its own address, or
// "" when its host is not a loopback IP literal or the platform has no
// twins.
func loopbackAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if ip := net.ParseIP(host); twins && err == nil && ip != nil && ip.IsLoopback() {
		return net.JoinHostPort(ip.String(), port)
	}
	return ""
}

// twinAdmits is the rule both ends of a twin apply before a frame
// crosses: the peer runs as uid.
func twinAdmits(peerUID, uid int) bool { return peerUID == uid }

// ListenTwin opens the twin of ln, a TCP command port: an abstract Unix
// socket named after ln's address, which a dial to it takes before TCP.
// It returns nil when ln is not on a loopback IP or the platform has no
// twins, and an error when the name is held already, whose holder would
// take the port's same-host clients. Peers are admitted by openTwin,
// each with RemoteAddr "unix:pid=<pid>".
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
