//go:build linux

package chaos_test

import (
	"context"
	"testing"

	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// TestProxyPassThrough: a fault-free proxy is transparent to a real
// wire client and daemon.
func TestProxyPassThrough(t *testing.T) {
	d := daemon.New(daemon.Config{Name: "plain"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p, err := chaos.NewProxy(d.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A proxy has no twin, so the dial is TCP and the faults apply;
	// the daemon behind it is dialed through its twin.
	for addr, local := range map[string]int64{p.Addr(): 0, d.Addr(): 1} {
		reg := telemetry.NewRegistry()
		c, err := wire.DialContext(context.Background(), nil, addr, 0, wire.NewMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(cmdlang.New(daemon.CmdPing)); err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter(wire.MetricDialsLocal).Value(); n != local {
			t.Fatalf("dial to %s: %s=%d, want %d", addr, wire.MetricDialsLocal, n, local)
		}
	}
}
