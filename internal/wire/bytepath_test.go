package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/hlc"
	"ace/internal/telemetry"
)

// writeLog wraps a connection and keeps every Write's bytes apart.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *writeLog) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *writeLog) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// frameOf is the one write a frame carrying payload must be.
func frameOf(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestOneWritePerFrame: a request, traced or not, a one-way send and a
// reply each leave in exactly one Write holding the length prefix, the
// header and the text, and the bytes are what the two-write framing put
// on the wire.
func TestOneWritePerFrame(t *testing.T) {
	ln := listen(t)
	served := make(chan *writeLog, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		log := &writeLog{Conn: conn}
		served <- log
		defer conn.Close()
		in := NewReader(conn)
		for {
			payload, err := in.ReadFrame()
			if err != nil {
				return
			}
			_, _, text := SplitPayload(payload)
			cmd, err := cmdlang.ParseBytes(text)
			if err != nil || !cmd.Has(cmdlang.SeqArg) {
				continue
			}
			WriteReply(log, cmdlang.OK().SetWord("echo", cmd.Name()), cmd.Int(cmdlang.SeqArg, 0)) //nolint:errcheck
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	out := &writeLog{Conn: raw}
	c := NewClient(out)
	defer c.Close()
	replies := <-served

	expect := func(what string, log *writeLog, want []byte) {
		t.Helper()
		got := log.take()
		if len(got) != 1 {
			t.Fatalf("%s: %d writes, want 1", what, len(got))
		}
		if !bytes.Equal(got[0], want) {
			t.Fatalf("%s: wrote %q, want %q", what, got[0], want)
		}
	}

	cmd := cmdlang.New("move").SetInt("x", 3).SetString("note", "hi there")
	if _, err := c.Call(cmd); err != nil {
		t.Fatal(err)
	}
	expect("request", out, frameOf(`move x=3 note="hi there" seq=1;`))
	expect("reply", replies, frameOf(`ok echo=move seq=1;`))

	sc := telemetry.NewTrace()
	ctx := telemetry.WithSpanContext(context.Background(), sc)
	if _, err := c.CallContext(ctx, cmd); err != nil {
		t.Fatal(err)
	}
	traced := out.take()
	if len(traced) != 1 {
		t.Fatalf("traced request: %d writes, want 1", len(traced))
	}
	payload, err := ReadFrame(bytes.NewReader(traced[0]))
	if err != nil || len(payload)+4 != len(traced[0]) {
		t.Fatalf("traced request is not one whole frame: %v", err)
	}
	gotSC, gotTS, text := SplitPayload(payload)
	if gotSC.TraceID != sc.TraceID || gotSC.Parent != sc.SpanID || !gotTS.IsZero() || string(text) != `move x=3 note="hi there" seq=2;` {
		t.Fatalf("traced request carried %+v %v %q", gotSC, gotTS, text)
	}
	// The old two-step encoding of the same message, for the bytes.
	if want := EncodePayload(gotSC, 0, cmd.Clone().SetInt(cmdlang.SeqArg, 2).String()); !bytes.Equal(payload, want) {
		t.Fatalf("traced payload %q, want %q", payload, want)
	}
	replies.take()

	if err := c.Send(cmd); err != nil {
		t.Fatal(err)
	}
	expect("send", out, frameOf(`move x=3 note="hi there";`))
	if err := c.SendContext(ctx, cmd); err != nil {
		t.Fatal(err)
	}
	if got := out.take(); len(got) != 1 || len(got[0]) != 4+2+hlcHeaderLen+len(cmd.String()) {
		t.Fatalf("traced send: %d writes %q", len(got), got)
	}

	if err := WriteFrame(out, []byte("raw;")); err != nil {
		t.Fatal(err)
	}
	expect("WriteFrame", out, frameOf("raw;"))
	if got := cmd.String(); got != `move x=3 note="hi there";` {
		t.Fatalf("the caller's command was changed: %s", got)
	}
}

// TestOversizeCallFailsAlone: a command too large for a frame is
// refused before a byte is written, so it is that caller's error and
// the calls sharing the connection never notice.
func TestOversizeCallFailsAlone(t *testing.T) {
	ln := listen(t)
	release := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			cmd, err := ReadCmd(conn)
			if err != nil {
				return
			}
			if cmd.Name() == "held" {
				<-release
			}
			WriteReply(conn, cmdlang.OK().SetWord("echo", cmd.Name()), cmd.Int(cmdlang.SeqArg, 0)) //nolint:errcheck
		}
	}()
	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.SetMetrics(NewMetrics(reg))

	held := make(chan error, 1)
	go func() {
		_, err := c.Call(cmdlang.New("held"))
		held <- err
	}()
	for reg.Snapshot().Counter(MetricFramesSent) == 0 {
		time.Sleep(time.Millisecond)
	}

	huge := cmdlang.New("put").SetString("value", strings.Repeat("v", MaxFrameSize))
	var tooLarge *ErrFrameTooLarge
	if _, err := c.Call(huge); !errors.As(err, &tooLarge) {
		t.Fatalf("oversize call: err = %v, want *ErrFrameTooLarge", err)
	}
	if err := c.Send(huge); !errors.As(err, &tooLarge) {
		t.Fatalf("oversize send: err = %v, want *ErrFrameTooLarge", err)
	}
	if c.Closed() {
		t.Fatal("an oversize command closed the connection")
	}
	if got := reg.Snapshot().Counter(MetricFramesSent); got != 1 {
		t.Fatalf("%d frames counted as sent, want only the held call's", got)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("the call in flight beside the oversize one failed: %v", err)
	}
	if _, err := c.Call(cmdlang.New("after")); err != nil {
		t.Fatalf("the connection is unusable after an oversize command: %v", err)
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
}

// chunkReader hands out a stream a few bytes at a time, the sizes
// taken in rotation from chunks (each +1, so none is empty).
type chunkReader struct {
	data   []byte
	chunks []byte
	i      int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(r.chunks) > 0 {
		n += int(r.chunks[r.i%len(r.chunks)])
		r.i++
	}
	n = min(n, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestReaderJoinsSplitFrames: an old peer writes a frame as header
// then payload; whichever way TCP cuts the stream, the frames come out
// the same, including one larger than the Reader's buffer.
func TestReaderJoinsSplitFrames(t *testing.T) {
	payloads := [][]byte{[]byte("ping seq=1;"), {}, bytes.Repeat([]byte("blob"), 3000), []byte("ok seq=2;")}
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		defer a.Close()
		for _, p := range payloads { // the two-write framing of earlier versions
			a.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p)))) //nolint:errcheck
			a.Write(p)                                                  //nolint:errcheck
		}
	}()
	in := NewReader(b)
	for i, want := range payloads {
		got, err := in.ReadFrame()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d from a two-write peer: %d bytes, err %v", i, len(got), err)
		}
	}
	if _, err := in.ReadFrame(); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}

	var stream bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunks := range [][]byte{nil, {0, 2}, {3}, {4, 0, 200}, {255}} {
		in := NewReader(&chunkReader{data: stream.Bytes(), chunks: chunks})
		for i, want := range payloads {
			got, err := in.ReadFrame()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("chunks %v, frame %d: %d bytes, err %v", chunks, i, len(got), err)
			}
		}
	}
}

// TestLateReplyNeverReachesALaterCall: calls are cancelled just as
// their replies arrive, ten thousand times over, with ordinary calls in
// between; every reply a caller is handed must be the reply to its own
// command. A call slot recycled while the reader still held it would
// deliver a cancelled call's reply to the slot's next user.
func TestLateReplyNeverReachesALaterCall(t *testing.T) {
	ln := listen(t)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in := NewReader(conn)
		for {
			payload, err := in.ReadFrame()
			if err != nil {
				return
			}
			cmd, err := cmdlang.ParseBytes(payload)
			if err != nil {
				return
			}
			if _, err := WriteReply(conn, cmdlang.OK().SetInt("n", cmd.Int("n", -1)), cmd.Int(cmdlang.SeqArg, 0)); err != nil {
				return
			}
		}
	}()
	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const cancels = 10000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < cancels/2; i++ {
				n := int64(g*cancels + i)
				ctx, cancel := context.WithCancel(context.Background())
				spin := rng.Intn(2000)
				go func() {
					for j := 0; j < spin; j++ {
						_ = j
					}
					cancel()
				}()
				reply, err := c.CallContext(ctx, cmdlang.New("echo").SetInt("n", n))
				cancel()
				switch {
				case errors.Is(err, context.Canceled):
				case err != nil:
					t.Errorf("call %d: %v", n, err)
					return
				case reply.Int("n", -1) != n:
					t.Errorf("call %d was handed the reply to call %d", n, reply.Int("n", -1))
					return
				}
				if reply, err := c.Call(cmdlang.New("echo").SetInt("n", -n)); err != nil || reply.Int("n", 1) != -n {
					t.Errorf("call %d after a cancel: reply %v, err %v", -n, reply, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSplitPayload: whatever the header claims, SplitPayload never
// panics and the text it returns is the tail of the payload — after the
// whole header or, when the header is malformed, the whole payload.
func FuzzSplitPayload(f *testing.F) {
	sc := telemetry.SpanContext{TraceID: 1, SpanID: 2, Parent: 3}
	full := EncodePayload(sc, hlc.Timestamp(99), "ping;") // 32-byte header
	legacy := append([]byte{traceMagic, traceHeaderLen}, full[2:2+traceHeaderLen]...)
	f.Add(full)
	f.Add(append(legacy, "ping;"...))                          // 24-byte header
	f.Add([]byte("ping;"))                                     // no header
	f.Add([]byte{traceMagic})                                  // the marker and nothing else
	f.Add([]byte{traceMagic, 3, 'a', 'b', 'c', ';'})           // hdrlen too short for a trace
	f.Add(append([]byte{traceMagic, 200}, full[2:]...))        // hdrlen beyond the payload
	f.Add(append([]byte{traceMagic, 40}, make([]byte, 60)...)) // a header longer than this version's
	f.Fuzz(func(t *testing.T, payload []byte) {
		sc, ts, text := SplitPayload(payload)
		if len(text) > len(payload) || (len(text) > 0 && &text[0] != &payload[len(payload)-len(text)]) {
			t.Fatalf("text %q is not the tail of payload %q", text, payload)
		}
		if len(text) == len(payload) {
			if sc.Valid() || !ts.IsZero() {
				t.Fatalf("a header was decoded (%+v, %v) but not consumed", sc, ts)
			}
			return
		}
		hlen := int(payload[1])
		if payload[0] != traceMagic || hlen < traceHeaderLen || len(payload)-len(text) != 2+hlen {
			t.Fatalf("consumed %d bytes of %q as a header", len(payload)-len(text), payload)
		}
		if hlen < hlcHeaderLen && !ts.IsZero() {
			t.Fatalf("a %d-byte header has no room for the timestamp %v", hlen, ts)
		}
	})
}

// FuzzReadFrame: a connection's Reader, fed a stream in arbitrary
// pieces, returns exactly the frames and the final error that ReadFrame
// returns reading the same stream frame by frame: every frame of a
// valid stream, an oversize header rejected, a truncated frame reported
// as such and a clean end as io.EOF.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	for _, p := range [][]byte{[]byte("ping seq=1;"), {}, EncodePayload(telemetry.NewTrace(), 5, "move x=1;"), bytes.Repeat([]byte("z"), 2*readBufSize)} {
		WriteFrame(&valid, p) //nolint:errcheck — a bytes.Buffer takes every write
	}
	f.Add(valid.Bytes(), []byte{0})
	f.Add(valid.Bytes(), []byte{3, 0, 250})
	f.Add(valid.Bytes()[:valid.Len()-7], []byte{16})      // truncated payload
	f.Add(valid.Bytes()[:17], []byte{1})                  // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}, []byte{0}) // oversize
	f.Add([]byte{0, 0x10, 0, 1, 'x'}, []byte{2})          // one byte over the limit
	f.Fuzz(func(t *testing.T, stream, chunks []byte) {
		ref := bytes.NewReader(stream)
		in := NewReader(&chunkReader{data: stream, chunks: chunks})
		for i := 0; ; i++ {
			want, wantErr := ReadFrame(ref)
			got, err := in.ReadFrame()
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: %d bytes, reference %d", i, len(got), len(want))
			}
			var tooLarge, wantTooLarge *ErrFrameTooLarge
			if errors.As(err, &tooLarge) != errors.As(wantErr, &wantTooLarge) || (tooLarge == nil && err != wantErr) {
				t.Fatalf("frame %d: err %v, reference %v", i, err, wantErr)
			}
			if err != nil {
				if tooLarge != nil && *tooLarge != *wantTooLarge {
					t.Fatalf("frame %d: err %v, reference %v", i, err, wantErr)
				}
				return
			}
		}
	})
}
