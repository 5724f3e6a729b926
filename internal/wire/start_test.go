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
// latency in wire.call.latency, and no write where the peer has left
// what it was sent unanswered.
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
			seq, err := c.Start(context.Background(), time.Time{}, cmdlang.New("ping"), sink, tag)
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
		seq, err := c.Start(context.Background(), time.Time{}, cmdlang.New("ping"), sink, calls)
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
			if _, err := c.Start(context.Background(), time.Time{}, cmdlang.New("ping"), sink, tag); err != nil {
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
		if _, err := c.Start(context.Background(), time.Time{}, cmdlang.New("ping"), sink, 3); err == nil {
			t.Fatal("Start on a failed connection succeeded")
		}
	})

	t.Run("a started reply records call latency", func(t *testing.T) {
		ln := listen(t)
		echoServer(t, ln, nil)
		c, err := Dial(nil, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reg := telemetry.NewRegistry()
		c.SetMetrics(NewMetrics(reg))
		sink := make(chan Result, 1)
		if _, err := c.Start(context.Background(), time.Time{}, cmdlang.New("ping"), sink, 7); err != nil {
			t.Fatal(err)
		}
		if r := <-sink; r.Err != nil || r.Tag != 7 {
			t.Fatalf("result %+v", r)
		}
		if h, ok := reg.Snapshot().Histogram(MetricCallLatency); !ok || h.Count != 1 {
			t.Fatalf("%s: %+v ok=%v, want one observation", MetricCallLatency, h, ok)
		}
	})

	t.Run("no start where the peer stopped answering", func(t *testing.T) {
		ln := stallServer(t)
		defer ln.Close()
		c, err := Dial(nil, ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		value := make([]byte, maxUnanswered/4)
		sink := make(chan Result, 8)
		refused := false
		for tag := 0; tag < cap(sink); tag++ {
			_, err := c.Start(context.Background(), time.Time{}, cmdlang.New("put").SetBytes("value", value), sink, tag)
			if errors.Is(err, errUnanswered) {
				refused = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !refused {
			t.Fatalf("Start wrote %d bytes to a peer that answered none of them", cap(sink)*len(value))
		}
		// The blocking path still writes there.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := c.CallContext(ctx, cmdlang.New("ping")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call to a stalled peer: %v, want a deadline", err)
		}
	})
}
