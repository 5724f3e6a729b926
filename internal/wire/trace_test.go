package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/hlc"
	"ace/internal/telemetry"
)

func TestTracePayloadRoundTrip(t *testing.T) {
	sc := telemetry.SpanContext{TraceID: 0xDEADBEEFCAFEF00D, SpanID: 0x1234, Parent: 0x5678}
	text := `move pan=45.5 tilt=-10.25;`
	payload := EncodePayload(sc, 0, text)
	got, hts, rest := SplitPayload(payload)
	if !hts.IsZero() {
		t.Fatalf("unstamped payload decoded an HLC: %v", hts)
	}
	if got != sc {
		t.Fatalf("trace context lost: %+v != %+v", got, sc)
	}
	if string(rest) != text {
		t.Fatalf("command text lost: %q", rest)
	}
}

func TestUntracedPayloadIsPlainText(t *testing.T) {
	text := `ping;`
	payload := EncodePayload(telemetry.SpanContext{}, 0, text)
	if string(payload) != text {
		t.Fatalf("untraced payload must be byte-identical to the command text, got %q", payload)
	}
	sc, _, rest := SplitPayload(payload)
	if sc.Valid() {
		t.Fatalf("plain payload decoded a trace context: %+v", sc)
	}
	if string(rest) != text {
		t.Fatalf("plain payload text altered: %q", rest)
	}
}

func TestSplitPayloadMalformedHeader(t *testing.T) {
	cases := [][]byte{
		{0x01},                   // bare marker
		{0x01, 24, 0, 0},         // truncated header
		{0x01, 3, 'a', 'b', 'c'}, // hdrlen below the trace header size
		append([]byte{0x01, 30}, make([]byte, 10)...), // hdrlen beyond payload
	}
	for _, payload := range cases {
		sc, _, rest := SplitPayload(payload)
		if sc.Valid() {
			t.Fatalf("malformed payload %v decoded a trace context", payload)
		}
		if !bytes.Equal(rest, payload) {
			t.Fatalf("malformed payload %v not returned whole", payload)
		}
	}
}

func TestSplitPayloadSkipsExtendedHeader(t *testing.T) {
	// A future version may append bytes after the 24 this version
	// understands; current readers must skip them.
	sc := telemetry.SpanContext{TraceID: 7, SpanID: 8, Parent: 9}
	base := EncodePayload(sc, 0, "ping;")
	extended := make([]byte, 0, len(base)+4)
	extended = append(extended, base[:2+hlcHeaderLen]...)
	extended = append(extended, 0xAA, 0xBB, 0xCC, 0xDD) // future header bytes
	extended = append(extended, base[2+hlcHeaderLen:]...)
	extended[1] = hlcHeaderLen + 4
	got, _, rest := SplitPayload(extended)
	if got != sc {
		t.Fatalf("extended header lost the trace context: %+v", got)
	}
	if string(rest) != "ping;" {
		t.Fatalf("extended header misaligned the text: %q", rest)
	}
}

func TestHLCPayloadRoundTrip(t *testing.T) {
	sc := telemetry.SpanContext{TraceID: 1, SpanID: 2, Parent: 3}
	ts := hlc.Make(1720000000123, 42)
	payload := EncodePayload(sc, ts, "psput path=/a value=62;")
	gotSC, gotTS, rest := SplitPayload(payload)
	if gotSC != sc || gotTS != ts {
		t.Fatalf("header lost: %+v %v", gotSC, gotTS)
	}
	if string(rest) != "psput path=/a value=62;" {
		t.Fatalf("command text lost: %q", rest)
	}

	// A stamp with no trace still earns a header: the zero trace IDs
	// decode as an invalid SpanContext, the timestamp survives.
	payload = EncodePayload(telemetry.SpanContext{}, ts, "psput path=/a value=62;")
	gotSC, gotTS, _ = SplitPayload(payload)
	if gotSC.Valid() {
		t.Fatalf("stampless trace decoded valid: %+v", gotSC)
	}
	if gotTS != ts {
		t.Fatalf("timestamp lost without trace: %v", gotTS)
	}
}

// TestLegacyTraceOnlyHeader pins backward compatibility with peers
// that emit the original 24-byte trace-only header: it must decode
// with a zero (unstamped) timestamp.
func TestLegacyTraceOnlyHeader(t *testing.T) {
	sc := telemetry.SpanContext{TraceID: 7, SpanID: 8, Parent: 9}
	text := "ping;"
	legacy := make([]byte, 0, 2+traceHeaderLen+len(text))
	legacy = append(legacy, traceMagic, traceHeaderLen)
	var fld [8]byte
	for _, v := range []uint64{sc.TraceID, sc.SpanID, sc.Parent} {
		binary.BigEndian.PutUint64(fld[:], v)
		legacy = append(legacy, fld[:]...)
	}
	legacy = append(legacy, text...)
	gotSC, gotTS, rest := SplitPayload(legacy)
	if gotSC != sc {
		t.Fatalf("legacy header lost the trace context: %+v", gotSC)
	}
	if !gotTS.IsZero() {
		t.Fatalf("legacy header conjured a timestamp: %v", gotTS)
	}
	if string(rest) != text {
		t.Fatalf("legacy header misaligned the text: %q", rest)
	}
}

// TestMixedVersionFraming proves the backward-compatibility contract:
// an old peer that knows nothing about trace headers keeps working
// against this version's reader, and this version's untraced client
// emits frames an old reader parses unchanged.
func TestMixedVersionFraming(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// New-version echo daemon: reads with the header-aware path,
	// replies headerless (replies never carry trace headers).
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					cmd, err := ReadCmd(conn)
					if err != nil {
						return
					}
					reply := cmdlang.OK().SetWord("echo", cmd.Name())
					reply.SetInt(cmdlang.SeqArg, cmd.Int(cmdlang.SeqArg, 0))
					if _, err := WriteCmd(conn, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	// Old peer: raw conn, plain WriteCmd frames, no headers at all.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	old := cmdlang.New("ping")
	old.SetInt(cmdlang.SeqArg, 1)
	if _, err := WriteCmd(raw, old); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	reply, err := ReadCmd(raw)
	if err != nil {
		t.Fatalf("old peer round-trip failed: %v", err)
	}
	if !cmdlang.IsOK(reply) || reply.Str("echo", "") != "ping" {
		t.Fatalf("old peer got wrong reply: %v", reply)
	}

	// New client without a trace context: frames must stay headerless
	// (old daemons would otherwise choke), and calls still work.
	c, err := Dial(nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(cmdlang.New("status")); err != nil {
		t.Fatalf("untraced call failed: %v", err)
	}

	// New client with a trace context against the new daemon: the
	// header-bearing frame round-trips too.
	ctx := telemetry.WithSpanContext(context.Background(), telemetry.NewTrace())
	if _, err := c.CallContext(ctx, cmdlang.New("status")); err != nil {
		t.Fatalf("traced call failed: %v", err)
	}
}

// TestOldReaderAcceptsUntracedNewClient pins the on-wire bytes: a
// frame produced by an untraced new client is parseable by the old
// read path (plain Parse of the whole payload), proving old daemons
// interoperate as long as no trace context is in play.
func TestOldReaderAcceptsUntracedNewClient(t *testing.T) {
	cmd := cmdlang.New("lookup").SetWord("name", "asd")
	payload := EncodePayload(telemetry.SpanContext{}, 0, cmd.String())
	parsed, err := cmdlang.Parse(string(payload))
	if err != nil {
		t.Fatalf("old reader rejects new untraced frame: %v", err)
	}
	if !parsed.Equal(cmd) {
		t.Fatalf("old reader mangled the command: %v", parsed)
	}
}

func TestClientMetricsRecordTraffic(t *testing.T) {
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
		for {
			cmd, err := ReadCmd(conn)
			if err != nil {
				return
			}
			reply := cmdlang.OK()
			reply.SetInt(cmdlang.SeqArg, cmd.Int(cmdlang.SeqArg, 0))
			if _, err := WriteCmd(conn, reply); err != nil {
				return
			}
		}
	}()

	reg := telemetry.NewRegistry()
	c, err := DialContext(context.Background(), nil, ln.Addr().String(), 0, NewMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(cmdlang.New("ping")); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if got := s.Counter(MetricFramesSent); got != 3 {
		t.Fatalf("frames sent = %d, want 3", got)
	}
	if got := s.Counter(MetricFramesRecv); got != 3 {
		t.Fatalf("frames recv = %d, want 3", got)
	}
	if s.Counter(MetricBytesSent) == 0 || s.Counter(MetricBytesRecv) == 0 {
		t.Fatalf("byte counters empty: %+v", s.Counters)
	}
	h, ok := s.Histogram(MetricCallLatency)
	if !ok || h.Count != 3 {
		t.Fatalf("call latency histogram = %+v ok=%v, want 3 observations", h, ok)
	}
}
