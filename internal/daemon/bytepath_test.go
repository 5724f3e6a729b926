package daemon

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
	"ace/internal/wire"
)

// TestOversizeCallIsTheCallersError: a command too large for a frame
// comes back to its caller as *wire.ErrFrameTooLarge after one attempt,
// with the pooled connection, the breaker and the retry counter as they
// were.
func TestOversizeCallIsTheCallersError(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "sink"}, nil)
	reg := telemetry.NewRegistry()
	p := tightPool(PoolConfig{Telemetry: reg, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	defer p.Close()
	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatal(err)
	}
	before, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}

	huge := cmdlang.New("put").SetString("value", strings.Repeat("v", wire.MaxFrameSize))
	var tooLarge *wire.ErrFrameTooLarge
	if _, err := p.Call(d.Addr(), huge); !errors.As(err, &tooLarge) {
		t.Fatalf("err = %v, want *wire.ErrFrameTooLarge", err)
	}
	if err := p.Send(d.Addr(), huge); !errors.As(err, &tooLarge) {
		t.Fatalf("send: err = %v, want *wire.ErrFrameTooLarge", err)
	}
	if n := reg.Snapshot().Counter(MetricPoolRetries); n != 0 {
		t.Fatalf("the oversize call was retried %d times", n)
	}
	if st := p.BreakerState(d.Addr()); st != "closed" {
		t.Fatalf("breaker %s after an oversize call", st)
	}
	after, err := p.Get(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if before != after || after.Closed() {
		t.Fatal("the oversize call cost the pool its connection")
	}
	if _, err := p.Call(d.Addr(), cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("ping after the oversize call: %v", err)
	}
}

// TestOversizeReplyAnsweredWithFail: a handler's reply that does not
// fit a frame reaches its caller as fail code=internal under the
// caller's seq, at once, and the connection goes on serving.
func TestOversizeReplyAnsweredWithFail(t *testing.T) {
	d := startTestDaemon(t, Config{Name: "verbose"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "dump"}, func(*Ctx, *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			return cmdlang.OK().SetString("all", strings.Repeat("d", wire.MaxFrameSize)), nil
		})
	})
	c, err := wire.DialContext(context.Background(), nil, d.Addr(), 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	start := time.Now()
	_, err = c.Call(cmdlang.New("dump"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeInternal) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want a remote internal error naming the frame limit", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("the caller waited %v for the refusal", took)
	}
	if _, err := c.Call(cmdlang.New(CmdPing)); err != nil {
		t.Fatalf("the connection did not survive an oversize reply: %v", err)
	}
}

// sharedReply is returned to every caller of TestSharedReplyIsOnlyRead's
// verb; the shell must send it without writing to it.
var sharedReply = cmdlang.OK().SetWord("state", "steady")

// TestSharedReplyIsOnlyRead: a detaching handler hands one package-level
// reply to finishes running concurrently for two connections. The seq
// goes into the frame, not into the reply, so the race detector sees
// only reads, each caller gets its own seq back, and neither the reply
// nor the caller's command has changed afterwards.
func TestSharedReplyIsOnlyRead(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	d := startTestDaemon(t, Config{Name: "shared"}, func(d *Daemon) {
		d.Handle(cmdlang.CommandSpec{Name: "status", AllowExtra: true}, func(ctx *Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			finish, ok := ctx.Detach()
			if !ok {
				return sharedReply, nil
			}
			go func() {
				gate.Done()
				gate.Wait() // both finishes are on their way before either writes
				finish.Finish(sharedReply)
			}()
			return nil, nil
		})
	})
	cmd := cmdlang.New("status").SetInt("n", 1)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for _, c := range []*wire.Client{dialTest(t, d), dialTest(t, d)} {
			wg.Add(1)
			go func(c *wire.Client) {
				defer wg.Done()
				reply, err := c.Call(cmd)
				if err != nil || reply.Str("state", "") != "steady" {
					t.Errorf("reply %v, err %v", reply, err)
				}
			}(c)
		}
		wg.Wait()
		gate.Add(2)
	}
	if got := sharedReply.String(); got != "ok state=steady;" {
		t.Fatalf("the handler's reply was changed by the shell: %s", got)
	}
	if got := cmd.String(); got != "status n=1;" {
		t.Fatalf("the caller's command was changed by the call: %s", got)
	}
}

// writeCounter is a connection that counts the Writes it is handed.
type writeCounter struct {
	net.Conn
	writes int
	last   []byte
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	c.last = bytes.Clone(p)
	return len(p), nil
}

// TestReplyFrameIsOneWrite: the shell's reply writer puts a reply on
// its connection in one Write, numbered or not.
func TestReplyFrameIsOneWrite(t *testing.T) {
	d := New(Config{Name: "w"})
	conn := &writeCounter{}
	reply := cmdlang.OK().SetWord("service", "w")
	d.reply(conn, reply, true, 41)
	if conn.writes != 1 || string(conn.last[4:]) != "ok service=w seq=41;" {
		t.Fatalf("numbered reply: %d writes, last %q", conn.writes, conn.last)
	}
	d.reply(conn, cmdlang.Fail(cmdlang.CodeBadArgument, "no"), false, 0)
	if conn.writes != 2 || string(conn.last[4:]) != `fail code=bad_argument error="no";` {
		t.Fatalf("unnumbered reply: %d writes, last %q", conn.writes, conn.last)
	}
	if got := reply.String(); got != "ok service=w;" {
		t.Fatalf("the reply was changed by the write: %s", got)
	}
}

// deadlineCounter is a TCP connection that counts the write deadlines
// armed on it.
type deadlineCounter struct {
	*net.TCPConn
	deadlines atomic.Int64
}

func (c *deadlineCounter) SetWriteDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.TCPConn.SetWriteDeadline(t)
}

// TestRepliesArmTheWriteDeadlineRarely: a stream of replies to a client
// that reads them arms no write deadline on the connection: the socket
// takes each frame whole, and only a drain of frames it did not take
// arms one.
func TestRepliesArmTheWriteDeadlineRarely(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn := &deadlineCounter{TCPConn: raw.(*net.TCPConn)}
	defer conn.Close()
	out := wire.NewOutbox(conn, wire.DefaultCallTimeout, nil)
	const replies = 1000
	read := make(chan int, 1)
	go func() {
		in, n := wire.NewReader(client), 0
		for ; n < replies; n++ {
			if _, err := in.ReadFrame(); err != nil {
				break
			}
		}
		read <- n
	}()
	d, reply := New(Config{Name: "w"}), cmdlang.OK()
	for seq := int64(1); seq <= replies; seq++ {
		d.reply(out, reply, true, seq)
	}
	if n := <-read; n != replies || conn.deadlines.Load() != 0 {
		t.Fatalf("%d replies: %d read, write deadline armed %d times", replies, n, conn.deadlines.Load())
	}
}

// TestCallAllocations gates the allocations of one whole call, client
// and shell together: Pool.Call(ping) over loopback against an
// in-process daemon. It was 47 before frames were encoded into pooled
// buffers and parsed in place; it is 13 now.
func TestCallAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("counts allocations of the whole process")
	}
	d := startTestDaemon(t, Config{Name: "alloc"}, nil)
	p := NewPool(nil)
	defer p.Close()
	ping := cmdlang.New(CmdPing)
	call := func() {
		if _, err := p.Call(d.Addr(), ping); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // dial, fill the pools, grow the maps
	}
	if n := testing.AllocsPerRun(2000, call); n > 24 {
		t.Fatalf("one ping round trip allocates %.1f times, want at most 24", n)
	}
}
