package chaos_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ace/internal/chaos"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/wire"
)

// frameEchoServer echoes 4-byte length-prefixed frames verbatim.
func frameEchoServer(t *testing.T) net.Listener {
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
				var hdr [4]byte
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
					if _, err := io.ReadFull(c, payload); err != nil {
						return
					}
					if _, err := c.Write(hdr[:]); err != nil {
						return
					}
					if _, err := c.Write(payload); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

func writeFrame(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
}

func readFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// corruptionSchedule pumps `frames` frames through a fresh proxy with
// the given seed and FlipProb and returns which frame indexes came
// back corrupted.
func corruptionSchedule(t *testing.T, target string, seed int64, frames int) []int {
	t.Helper()
	p, err := chaos.NewProxy(target, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetFaults(chaos.Faults{FlipProb: 0.3})

	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck

	var corrupted []int
	for i := 0; i < frames; i++ {
		want := []byte(fmt.Sprintf("frame-%04d-payload-abcdefghijklmnop", i))
		writeFrame(t, conn, want)
		got := readFrame(t, conn)
		if string(got) != string(want) {
			corrupted = append(corrupted, i)
		}
	}
	return corrupted
}

// TestDeterministicCorruptionSchedule: the same seed produces the
// exact same failure schedule run after run; a different seed
// produces a different one. This is the property that makes chaos
// failures reproducible.
func TestDeterministicCorruptionSchedule(t *testing.T) {
	ln := frameEchoServer(t)
	defer ln.Close()
	const frames = 300

	a := corruptionSchedule(t, ln.Addr().String(), 42, frames)
	b := corruptionSchedule(t, ln.Addr().String(), 42, frames)
	if len(a) == 0 {
		t.Fatal("no corruption injected at FlipProb=0.3 over 300 frames")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}

	c := corruptionSchedule(t, ln.Addr().String(), 43, frames)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestPartitionRefusesAndHealRestores: a partitioned proxy kills live
// connections and refuses new ones; healing restores service.
func TestPartitionRefusesAndHealRestores(t *testing.T) {
	d := daemon.New(daemon.Config{Name: "island"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p, err := chaos.NewProxy(d.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pool := daemon.NewPoolConfig(daemon.PoolConfig{
		DialTimeout:     300 * time.Millisecond,
		CallTimeout:     500 * time.Millisecond,
		MaxRetries:      -1,
		BreakerCooldown: 50 * time.Millisecond,
	})
	defer pool.Close()

	if _, err := pool.Call(p.Addr(), cmdlang.New(daemon.CmdPing)); err != nil {
		t.Fatal(err)
	}

	p.Partition()
	start := time.Now()
	if _, err := pool.Call(p.Addr(), cmdlang.New(daemon.CmdPing)); err == nil {
		t.Fatal("call across partition succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("partitioned call took %v; not failing promptly", time.Since(start))
	}

	p.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := pool.Call(p.Addr(), cmdlang.New(daemon.CmdPing)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never recovered after heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBlackholeTriggersCallDeadline: a blackholed path makes calls
// fail with DeadlineExceeded in bounded time instead of hanging.
func TestBlackholeTriggersCallDeadline(t *testing.T) {
	d := daemon.New(daemon.Config{Name: "void"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p, err := chaos.NewProxy(d.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := wire.Dial(nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New(daemon.CmdPing)); err != nil {
		t.Fatal(err)
	}

	p.SetFaults(chaos.Faults{Blackhole: true})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.CallContext(ctx, cmdlang.New(daemon.CmdPing))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("blackholed call not bounded by deadline")
	}
}

// TestTruncatedFrameFailsCall: mid-frame truncation kills the
// connection and surfaces as a prompt call failure, never a hang.
func TestTruncatedFrameFailsCall(t *testing.T) {
	d := daemon.New(daemon.Config{Name: "chopped"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p, err := chaos.NewProxy(d.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetFaults(chaos.Faults{TruncateProb: 1})

	c, err := wire.Dial(nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.CallContext(ctx, cmdlang.New(daemon.CmdPing)); err == nil {
		t.Fatal("call over truncating proxy succeeded")
	}
}

// TestLatencyInjection: injected latency is observed by callers.
func TestLatencyInjection(t *testing.T) {
	d := daemon.New(daemon.Config{Name: "molasses"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)

	p, err := chaos.NewProxy(d.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := wire.Dial(nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New(daemon.CmdPing)); err != nil {
		t.Fatal(err)
	}

	p.SetFaults(chaos.Faults{Latency: 60 * time.Millisecond})
	start := time.Now()
	if _, err := c.Call(cmdlang.New(daemon.CmdPing)); err != nil {
		t.Fatal(err)
	}
	// Request and reply directions each add the latency.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("round trip took %v; latency not injected", elapsed)
	}
}

// TestFabricPartitionSets: partitioning a named subset of the fabric
// leaves the rest reachable.
func TestFabricPartitionSets(t *testing.T) {
	var daemons []*daemon.Daemon
	f := chaos.NewFabric(99)
	defer f.Close()
	for _, name := range []string{"a", "b", "c"} {
		d := daemon.New(daemon.Config{Name: name})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Stop)
		daemons = append(daemons, d)
		if _, err := f.Proxy(name, d.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	pool := daemon.NewPoolConfig(daemon.PoolConfig{
		DialTimeout: 300 * time.Millisecond,
		CallTimeout: 500 * time.Millisecond,
		MaxRetries:  -1,
	})
	defer pool.Close()

	f.Partition("a", "c")
	if _, err := pool.Call(f.Addr("b"), cmdlang.New(daemon.CmdPing)); err != nil {
		t.Fatalf("unpartitioned service unreachable: %v", err)
	}
	if _, err := pool.Call(f.Addr("a"), cmdlang.New(daemon.CmdPing)); err == nil {
		t.Fatal("partitioned service reachable")
	}
	f.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := pool.Call(f.Addr("a"), cmdlang.New(daemon.CmdPing)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partitioned service never healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = daemons
}
