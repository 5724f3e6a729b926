package wire

import (
	"bytes"
	"crypto/tls"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"ace/internal/cmdlang"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("got %q want %q", got, p)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// A malicious header claiming a huge size must be rejected before
	// allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized read accepted")
	}
	var efl *ErrFrameTooLarge
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	_, err := ReadFrame(&buf)
	if !asErr(err, &efl) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func asErr[T error](err error, target *T) bool {
	for err != nil {
		if e, ok := err.(T); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestFrameShortRead(t *testing.T) {
	r := bytes.NewReader([]byte{0, 0, 0, 10, 'a', 'b'})
	if _, err := ReadFrame(r); err != io.ErrUnexpectedEOF {
		t.Fatalf("err=%v", err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(p []byte) bool {
		if len(p) > MaxFrameSize {
			p = p[:MaxFrameSize]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, p); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdOverPipe(t *testing.T) {
	a, b := socketPair(t)
	want := cmdlang.New("move").SetInt("x", 3).SetString("note", "hi there")
	go func() { WriteCmd(NewOutbox(a, DefaultCallTimeout, nil), want) }() //nolint:errcheck
	got, err := ReadCmd(b)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("got %v", got)
	}
}

// echoServer accepts connections and answers every command with an
// "ok" echo carrying the same seq.
func echoServer(t *testing.T, ln net.Listener, tlsCfg *tls.Config) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if tlsCfg != nil {
				conn = tls.Server(conn, tlsCfg)
			}
			go func(c net.Conn) {
				defer c.Close()
				var mu sync.Mutex
				for {
					cmd, err := ReadCmd(c)
					if err != nil {
						return
					}
					reply := cmdlang.OK().
						SetInt(cmdlang.SeqArg, cmd.Int(cmdlang.SeqArg, 0)).
						SetWord("echo", cmd.Name())
					mu.Lock()
					WriteCmd(c, reply) //nolint:errcheck
					mu.Unlock()
				}
			}(conn)
		}
	}()
}

func TestClientPlaintextCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln, nil)

	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cmd := cmdlang.New("ping").SetInt("n", 1)
	reply, err := c.Call(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Str("echo", "") != "ping" {
		t.Fatalf("reply=%v", reply)
	}
	// The seq goes on a copy: callers hand one command to several
	// concurrent calls (pstore's write fan-out, one per replica).
	if got := cmd.String(); got != "ping n=1;" {
		t.Fatalf("the caller's command was changed by the call: %s", got)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln, nil)

	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	const per = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"alpha", "beta", "gamma", "delta"}[w%4]
			for i := 0; i < per; i++ {
				reply, err := c.Call(cmdlang.New(name))
				if err != nil {
					errs <- err
					return
				}
				if reply.Str("echo", "") != name {
					t.Errorf("cross-talk: wanted echo=%s got %v", name, reply)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientFailReplyBecomesRemoteError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, _ := ln.Accept()
		defer conn.Close()
		cmd, _ := ReadCmd(conn)
		f := cmdlang.Fail(cmdlang.CodeNotFound, "nope").SetInt(cmdlang.SeqArg, cmd.Int(cmdlang.SeqArg, 0))
		WriteCmd(conn, f) //nolint:errcheck
	}()
	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(cmdlang.New("anything"))
	if !cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
		t.Fatalf("err=%v", err)
	}
}

func TestClientServerGoneUnblocksCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, _ := ln.Accept()
		conn.Close() // immediate hangup
	}()
	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New("ping")); err == nil {
		t.Fatal("call against hung-up server succeeded")
	}
	ln.Close()
}

func TestTLSMutualAuth(t *testing.T) {
	ca, err := NewCA("test")
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewTransport(ca, "asd")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewTransport(ca, "acectl")
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln, server.ServerConfig())

	c, err := Dial(client, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Call(cmdlang.New("secure"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Str("echo", "") != "secure" {
		t.Fatalf("reply=%v", reply)
	}
}

func TestTLSRejectsForeignCA(t *testing.T) {
	caA, _ := NewCA("envA")
	caB, _ := NewCA("envB")
	server, _ := NewTransport(caA, "asd")
	intruder, _ := NewTransport(caB, "spy")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln, server.ServerConfig())

	c, err := Dial(intruder, ln.Addr().String())
	if err == nil {
		// Handshake may complete lazily; the call must fail.
		if _, cerr := c.Call(cmdlang.New("ping")); cerr == nil {
			t.Fatal("foreign-CA client was served")
		}
		c.Close()
	}
}

func TestTLSRejectsPlaintextClient(t *testing.T) {
	ca, _ := NewCA("env")
	server, _ := NewTransport(ca, "asd")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln, server.ServerConfig())

	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		return // dial-time rejection is fine too
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New("ping")); err == nil {
		t.Fatal("plaintext client was served by TLS daemon")
	}
}

func TestTransportPlaintextConfigsAreNil(t *testing.T) {
	pt := &Transport{Name: "x", Plaintext: true}
	if pt.ServerConfig() != nil || pt.ClientConfig("") != nil {
		t.Fatal("plaintext transport produced TLS configs")
	}
	var nilT *Transport
	if nilT.ServerConfig() != nil || nilT.ClientConfig("") != nil {
		t.Fatal("nil transport produced TLS configs")
	}
}

func TestCAIssueDistinctSerials(t *testing.T) {
	ca, _ := NewCA("env")
	a, err := ca.Issue("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ca.Issue("b")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Certificate[0], b.Certificate[0]) {
		t.Fatal("identical certs issued")
	}
}

// TestUnnumberedFrameIsDropped: a frame that carries no seq, which is
// what a daemon answers to a line it could not parse, reaches no call.
// The call in flight still gets its own reply, and the connection
// carries on.
func TestUnnumberedFrameIsDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; i < 2; i++ {
			cmd, err := ReadCmd(conn)
			if err != nil {
				return
			}
			if i == 0 {
				// Strictly before the reply, so the client reads it
				// while the call is pending.
				WriteCmd(conn, cmdlang.Fail("parse_error", "unterminated string")) //nolint:errcheck
			}
			WriteCmd(conn, cmdlang.OK().SetInt(cmdlang.SeqArg, cmd.Int(cmdlang.SeqArg, 0)).SetWord("echo", cmd.Name())) //nolint:errcheck
		}
	}()

	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"first", "second"} {
		reply, err := c.Call(cmdlang.New(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reply.Str("echo", ""); got != name {
			t.Fatalf("%s got the reply of %q: %v", name, got, reply)
		}
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending entries left: %d", n)
	}
}
