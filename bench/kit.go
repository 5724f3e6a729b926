package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/flow"
	"ace/internal/rmi"
	"ace/internal/wire"
)

// kit is the apparatus every workload is measured with, apart from
// the system under test: the RMI comparison system, a raw TCP echo
// server standing for the loopback itself, and an idle twin of the
// call workload's daemon whose layers the probes and the replay call
// one at a time without disturbing the daemons that serve the load.
type kit struct {
	rmiSrv  *rmi.Server
	rmi     []*rmiWorker
	echoSrv *echoServer
	echo    []*echoConn
	twin    *daemon.Daemon
	flow    *flow.Controller
}

func newKit(seed int64, clients int) (*kit, error) {
	k := &kit{rmiSrv: rmi.NewServer(), flow: flow.NewController(flow.Config{}, nil)}
	k.rmiSrv.Register("device", rmiDevice{})
	if err := k.rmiSrv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start rmi server: %w", err)
	}
	var err error
	if k.echoSrv, err = newEchoServer(); err != nil {
		k.close()
		return nil, err
	}
	if k.twin, err = newShellDaemon("bench_twin"); err != nil {
		k.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := rmi.Dial(k.rmiSrv.Addr())
		if err != nil {
			k.close()
			return nil, fmt.Errorf("dial rmi server: %w", err)
		}
		k.rmi = append(k.rmi, &rmiWorker{c: c, gen: newCallGen(seed*1000 + int64(i))})
		ec, err := dialEcho(k.echoSrv.addr())
		if err != nil {
			k.close()
			return nil, err
		}
		k.echo = append(k.echo, ec)
	}
	return k, nil
}

func (k *kit) close() {
	for _, w := range k.rmi {
		_ = w.c.Close() // nothing is written after the last reply was read
	}
	for _, c := range k.echo {
		_ = c.conn.Close() // as above
	}
	if k.twin != nil {
		k.twin.Stop()
	}
	if k.echoSrv != nil {
		k.echoSrv.stop()
	}
	k.rmiSrv.Stop()
	k.flow.Close()
}

// admit takes one slot of the kit's idle admission controller and
// gives it back.
func (k *kit) admit(ctx context.Context) error {
	ticket, err := k.flow.Admit(ctx, flow.Data, "anonymous")
	if err != nil {
		return err
	}
	ticket.Done()
	return nil
}

// dispatch runs cmd, one of the call workload's commands, through the
// twin daemon's dispatch path: validation, handler, notifications.
func (k *kit) dispatch(cmd *cmdlang.CmdLine) error {
	reply := k.twin.ExecuteLocal(&daemon.Ctx{D: k.twin, Principal: "anonymous", RemoteAddr: "local"}, cmd)
	if !cmdlang.IsOK(reply) {
		return fmt.Errorf("twin answered %q", reply.Name())
	}
	return nil
}

// rmiDevice is the RMI-side counterpart of the call workload's daemon:
// one method per message kind, taking the same values.
type rmiDevice struct{}

func (rmiDevice) Ping() string                           { return "ok" }
func (rmiDevice) Move(pan, tilt float64) string          { return "ok" }
func (rmiDevice) MoveBlob(_, _ float64, _ string) string { return "ok" }
func (rmiDevice) Register(_, _ string, _ int64, _, _ string, _ int64) string {
	return "ok"
}

// rmiWorker sends the call workload's messages through the RMI
// comparison system.
type rmiWorker struct {
	c   *rmi.Client
	gen *callGen
}

func (w *rmiWorker) step() (time.Duration, error) {
	a := w.gen.next()
	var (
		out []any
		err error
	)
	t0 := time.Now()
	switch a.kind {
	case callBare:
		out, err = w.c.Call("device", "Ping")
	case callControl:
		out, err = w.c.Call("device", "Move", a.pan, a.tilt)
	case callTypical:
		out, err = w.c.Call("device", "Register", "ptz_cam_1", "machine25", a.port,
			"hawk", "Service.Device.PTZCamera.VCC3", int64(10000))
	default:
		out, err = w.c.Call("device", "MoveBlob", a.pan, a.tilt, w.gen.blob)
	}
	d := time.Since(t0)
	if err == nil && (len(out) != 1 || out[0] != "ok") {
		err = fmt.Errorf("rmi: answered %v, want ok", out)
	}
	return d, err
}

// echoServer answers each request with as many bytes as the request
// asks for: the cost of moving a message of one size and its reply of
// another over loopback TCP, with no ACE code involved.
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func newEchoServer() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen echo server: %w", err)
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				serveEcho(conn)
			}()
		}
	}()
	return s, nil
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every connection, and waits for the
// goroutines serving them.
func (s *echoServer) stop() {
	_ = s.ln.Close() // the accept loop ends on any error
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close() // ends serveEcho; no data is in flight
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func serveEcho(conn net.Conn) {
	var hdr [8]byte
	buf := make([]byte, 0, 8192)
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		in, out := int(binary.BigEndian.Uint32(hdr[:4])), int(binary.BigEndian.Uint32(hdr[4:]))
		if n := max(in, out); n > cap(buf) {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(conn, buf[:in]); err != nil {
			return
		}
		if _, err := conn.Write(buf[:out]); err != nil {
			return
		}
	}
}

type echoConn struct {
	conn net.Conn
	buf  []byte
}

func dialEcho(addr string) (*echoConn, error) {
	conn, err := net.DialTimeout("tcp", addr, wire.DefaultCallTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial echo server: %w", err)
	}
	return &echoConn{conn: conn}, nil
}

// roundTrip sends in bytes and waits for out bytes back.
func (c *echoConn) roundTrip(in, out int) error {
	if in < 0 || out < 1 {
		return errors.New("echo: a round trip needs a reply of at least one byte")
	}
	if n := 8 + max(in, out); n > len(c.buf) {
		c.buf = make([]byte, n)
	}
	binary.BigEndian.PutUint32(c.buf[:4], uint32(in))
	binary.BigEndian.PutUint32(c.buf[4:8], uint32(out))
	if err := c.conn.SetDeadline(time.Now().Add(wire.DefaultCallTimeout)); err != nil {
		return fmt.Errorf("echo deadline: %w", err)
	}
	if _, err := c.conn.Write(c.buf[:8+in]); err != nil {
		return fmt.Errorf("echo write: %w", err)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:out]); err != nil {
		return fmt.Errorf("echo read: %w", err)
	}
	return nil
}
