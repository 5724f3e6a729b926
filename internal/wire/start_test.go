package wire

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/telemetry"
)

// TestStartedCallContract pins what Start promises its caller: exactly
// one Result per started call that Cancel did not take back, an error
// Result to every started call when the connection fails, the reply's
// latency in wire.call.latency, and no start where the peer reads
// slower than it is written to.
func TestStartedCallContract(t *testing.T) {
	t.Run("cancel false means one result", func(t *testing.T) {
		ln := listen(t)
		echoServer(t, ln, nil)
		c, err := Dial(nil, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const calls = 200
		sink := make(chan Result, calls)
		owed := map[int]bool{}
		for tag := 0; tag < calls; tag++ {
			seq, err := c.Start(context.Background(), cmdlang.New("ping"), sink, tag)
			if err != nil {
				t.Fatal(err)
			}
			if tag%2 == 1 && c.Cancel(seq) {
				continue // taken back: no Result
			}
			owed[tag] = true
		}
		// The server answers in order, so every earlier reply has been
		// delivered once this call's has.
		if _, err := c.Call(cmdlang.New("ping")); err != nil {
			t.Fatal(err)
		}
		for len(sink) > 0 {
			r := <-sink
			if r.Err != nil {
				t.Fatalf("call %d: %v", r.Tag, r.Err)
			}
			if !owed[r.Tag] {
				t.Fatalf("call %d: a Result it was not owed, or a second one", r.Tag)
			}
			delete(owed, r.Tag)
		}
		if len(owed) != 0 {
			t.Fatalf("%d calls whose Cancel returned false got no Result", len(owed))
		}
		// Cancelling a call whose Result has arrived returns false.
		seq, err := c.Start(context.Background(), cmdlang.New("ping"), sink, calls)
		if err != nil {
			t.Fatal(err)
		}
		if r := <-sink; r.Tag != calls || r.Err != nil {
			t.Fatalf("result %+v", r)
		}
		if c.Cancel(seq) {
			t.Fatal("Cancel of an answered call returned true")
		}
	})

	t.Run("connection failure reaches every started call", func(t *testing.T) {
		ln := listen(t)
		accepted := make(chan net.Conn, 1)
		go func() {
			conn, err := ln.Accept()
			if err == nil {
				accepted <- conn
			}
		}()
		c, err := Dial(nil, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sink := make(chan Result, 3)
		for tag := 0; tag < 3; tag++ {
			if _, err := c.Start(context.Background(), cmdlang.New("ping"), sink, tag); err != nil {
				t.Fatal(err)
			}
		}
		(<-accepted).Close()
		seen := map[int]bool{}
		for range 3 {
			select {
			case r := <-sink:
				if r.Err == nil || r.Reply != nil {
					t.Fatalf("call %d: %+v, want an error and no reply", r.Tag, r)
				}
				seen[r.Tag] = true
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of 3 started calls heard of the failure", len(seen))
			}
		}
		if len(seen) != 3 {
			t.Fatalf("results for calls %v, want 0, 1 and 2", seen)
		}
		if _, err := c.Start(context.Background(), cmdlang.New("ping"), sink, 3); err == nil {
			t.Fatal("Start on a failed connection succeeded")
		}
	})

	t.Run("a started reply records call latency", func(t *testing.T) {
		ln := listen(t)
		echoServer(t, ln, nil)
		reg := telemetry.NewRegistry()
		c, err := DialContext(context.Background(), nil, ln.Addr().String(), 0, NewMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sink := make(chan Result, 1)
		if _, err := c.Start(context.Background(), cmdlang.New("ping"), sink, 7); err != nil {
			t.Fatal(err)
		}
		if r := <-sink; r.Err != nil || r.Tag != 7 {
			t.Fatalf("result %+v", r)
		}
		if h, ok := reg.Snapshot().Histogram(MetricCallLatency); !ok || h.Count != 1 {
			t.Fatalf("%s: %+v ok=%v, want one observation", MetricCallLatency, h, ok)
		}
	})

	t.Run("a tell is one unnumbered frame", func(t *testing.T) {
		ln := listen(t)
		got := make(chan *cmdlang.CmdLine, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			cmd, _ := ReadCmd(conn)
			got <- cmd
		}()
		c, err := Dial(nil, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Tell(context.Background(), cmdlang.New("put").SetInt("version", 7)); err != nil {
			t.Fatal(err)
		}
		cmd := <-got
		if cmd == nil || cmd.Name() != "put" || cmd.Int("version", 0) != 7 {
			t.Fatalf("peer read %v, want the told command", cmd)
		}
		if _, numbered := cmd.Get(cmdlang.SeqArg); numbered {
			t.Fatalf("a tell carried a %s: %v", cmdlang.SeqArg, cmd)
		}
	})

	t.Run("a tell stops where a start goes on", func(t *testing.T) {
		c, _ := pairClient(t) // a peer that reads nothing
		value := make([]byte, 4<<10)
		const most = 1 << 14
		told := 0
		for ; told < most; told++ {
			err := c.Tell(context.Background(), cmdlang.New("put").SetBytes("value", value))
			if errors.Is(err, errUnanswered) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if told == most {
			t.Fatalf("%d tells to a peer that reads nothing, none refused", told)
		}
		if _, err := c.Start(context.Background(), cmdlang.New("ping"), make(chan Result, 1), 0); err != nil {
			t.Fatalf("Start after the tells were refused: %v", err)
		}
	})

	t.Run("no start where the peer stopped answering", func(t *testing.T) {
		c, _ := pairClient(t) // a peer that reads nothing
		value := make([]byte, 4<<10)
		const most = 1 << 14
		sink := make(chan Result, most)
		started := 0
		for ; started < most; started++ {
			_, err := c.Start(context.Background(), cmdlang.New("put").SetBytes("value", value), sink, started)
			if errors.Is(err, errUnanswered) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if started == most {
			t.Fatalf("%d calls started to a peer that reads nothing, none refused", started)
		}
		// The blocking path still writes there.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := c.CallContext(ctx, cmdlang.New("ping")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call to a stalled peer: %v, want a deadline", err)
		}
	})
}
