//go:build linux

package daemon

import (
	"context"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// TestTwinCarriesTLSAndPeerPID: a loopback dial to a daemon takes its
// twin, TLS runs over it with the principal still from the client's
// certificate, and the handler sees the peer as its pid.
func TestTwinCarriesTLSAndPeerPID(t *testing.T) {
	ca, err := wire.NewCA("test")
	if err != nil {
		t.Fatal(err)
	}
	serverT, err := wire.NewTransport(ca, "vault")
	if err != nil {
		t.Fatal(err)
	}
	clientT, err := wire.NewTransport(ca, "john_doe")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan [2]string, 1)
	d := startTestDaemon(t, Config{Name: "vault", Transport: serverT}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "whoami"}, func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			got <- [2]string{ctx.Principal, ctx.RemoteAddr}
			return nil, nil
		})
	})
	reg := telemetry.NewRegistry()
	c, err := wire.DialContext(context.Background(), clientT, d.Addr(), 0, wire.NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New("whoami")); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(wire.MetricDialsLocal).Value(); n != 1 {
		t.Fatalf("%s=%d, want 1", wire.MetricDialsLocal, n)
	}
	peer := <-got
	if want := fmt.Sprintf("unix:pid=%d", os.Getpid()); peer != [2]string{"john_doe", want} {
		t.Fatalf("principal, remote = %q, want john_doe and %q", peer, want)
	}
}

// TestStartRefusesHeldTwinName: a daemon does not start on a loopback
// port whose twin name someone else holds, who would otherwise take
// its same-host clients, and Stop after that failed Start does nothing.
// wire's TestListenTwinRefusesHeldName tests the refusal itself.
func TestStartRefusesHeldTwinName(t *testing.T) {
	// The port is free when picked but closed before Start, so another
	// process may take it in between: then pick another.
	for try := 0; try < 5; try++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		holder, err := net.Listen("unix", "@ace/"+addr)
		if err != nil {
			continue
		}
		d := New(Config{Name: "late", Listen: addr})
		err = d.Start()
		d.Stop()
		holder.Close()
		if err != nil && strings.Contains(err.Error(), ": listen: ") {
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "twin") {
			t.Fatalf("Start on %s with its twin name held: %v, want a twin error", addr, err)
		}
		return
	}
	t.Fatal("no free loopback port in 5 tries")
}
