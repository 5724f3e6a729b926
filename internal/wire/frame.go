// Package wire provides the transport substrate for ACE daemon
// communications: length-prefixed command frames, TLS identities
// issued by an in-memory environment CA (the paper's "SSL at the
// socket level", §3.1), and a concurrent request/response client.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ace/internal/cmdlang"
	"ace/internal/hlc"
	"ace/internal/telemetry"
)

// MaxFrameSize bounds a single command frame. ACE commands are small
// control messages; bulk data travels on the UDP data channel.
const MaxFrameSize = 1 << 20

// ErrFrameTooLarge is returned when a peer sends an oversized frame.
type ErrFrameTooLarge struct{ Size uint32 }

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit %d", e.Size, MaxFrameSize)
}

// A frame leaves in one Write — length prefix, header and command text
// together — because on a TCP_NODELAY socket every Write is a segment
// and a wake-up of the peer. It is built in a buffer from bufPool,
// which goes back as soon as Write has returned; io.Writer forbids the
// writer to keep it.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf keeps the odd bulk frame from pinning its buffer in
// the pool.
const maxPooledBuf = 64 << 10

// newFrame returns a pooled buffer holding the four bytes of a length
// prefix, for the payload to be appended to and writeFrame to send.
func newFrame() *[]byte {
	buf := bufPool.Get().(*[]byte)
	*buf = append((*buf)[:0], 0, 0, 0, 0)
	return buf
}

// writeFrame fills in the length prefix of the frame in buf, sends it
// in one Write and recycles buf. It returns the payload's length. A
// payload over MaxFrameSize is refused before anything is written.
func writeFrame(w io.Writer, buf *[]byte) (int, error) {
	b := *buf
	n := len(b) - 4
	var err error
	if n > MaxFrameSize {
		err = &ErrFrameTooLarge{Size: uint32(n)}
	} else {
		binary.BigEndian.PutUint32(b, uint32(n))
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledBuf {
		bufPool.Put(buf)
	}
	return n, err
}

// WriteFrame writes one length-prefixed payload in a single Write.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return &ErrFrameTooLarge{Size: uint32(len(payload))}
	}
	buf := newFrame()
	*buf = append(*buf, payload...)
	_, err := writeFrame(w, buf)
	return err
}

// encodeCmd renders c as one frame, straight into a pooled buffer: the
// header when sc is valid or ts is set, then the command text, numbered
// seq when numbered.
func encodeCmd(sc telemetry.SpanContext, ts hlc.Timestamp, c *cmdlang.CmdLine, numbered bool, seq int64) *[]byte {
	buf := newFrame()
	b := appendHeader(*buf, sc, ts)
	if numbered {
		b = c.AppendSeq(b, seq)
	} else {
		b = c.AppendTo(b)
	}
	*buf = b
	return buf
}

// WriteCmd writes the command line, as it stands, as one frame and
// reports the payload's length. An *ErrFrameTooLarge means nothing was
// written.
func WriteCmd(w io.Writer, c *cmdlang.CmdLine) (int, error) {
	return writeFrame(w, encodeCmd(telemetry.SpanContext{}, 0, c, false, 0))
}

// WriteReply is WriteCmd for a return command: it goes out under the
// request's seq, while reply itself stays as the handler returned it.
func WriteReply(w io.Writer, reply *cmdlang.CmdLine, seq int64) (int, error) {
	return writeFrame(w, encodeCmd(telemetry.SpanContext{}, 0, reply, true, seq))
}

// readHeader decodes a frame's length prefix.
func readHeader(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameSize {
		return 0, &ErrFrameTooLarge{Size: n}
	}
	return int(n), nil
}

// ReadFrame reads one length-prefixed payload straight from r, taking
// no byte beyond it. A connection's frames are read through a Reader.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := readHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, truncated(err)
	}
	return payload, nil
}

// truncated is err for a stream that ended inside a frame: no clean
// end of file.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readBufSize is a Reader's buffer: room for the length prefix and the
// whole of an ordinary command, small enough to keep per connection.
const readBufSize = 4096

// Reader reads the frames of one connection. A frame that arrives
// whole, however it was written, costs one Read of the connection into
// the Reader's buffer and one allocation, the payload's own, which
// ReadFrame hands to the caller for good; what a bulk frame has beyond
// the buffer is read straight into that allocation.
type Reader struct{ br *bufio.Reader }

// NewReader returns a Reader taking its frames from r.
func NewReader(r io.Reader) *Reader { return &Reader{bufio.NewReaderSize(r, readBufSize)} }

// ReadFrame returns the next frame's payload, in memory of its own.
// io.EOF means the stream ended between frames.
func (fr *Reader) ReadFrame() ([]byte, error) {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			err = truncated(err)
		}
		return nil, err
	}
	n, err := readHeader(hdr)
	if err != nil {
		return nil, err
	}
	fr.br.Discard(4) //nolint:errcheck — the four bytes were just peeked
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return nil, truncated(err)
	}
	return payload, nil
}

// Trace header. A frame payload optionally begins with a header
// carrying the caller's span context and hybrid-logical-clock
// timestamp:
//
//	[0x01][hdrlen:1][traceID:8][spanID:8][parent:8][hlc:8][command text]
//
// The marker byte 0x01 can never begin a headerless payload, because
// command text always starts with a word character ([A-Za-z_]) or
// whitespace — so readers accept both forms and old peers that send
// plain payloads keep round-tripping unchanged. hdrlen counts the
// bytes between it and the command text; readers skip bytes beyond
// the ones they understand, which is exactly how the 24-byte
// trace-only header of earlier versions grew the 8-byte packed HLC
// field (hlc.Timestamp: 48-bit wall milliseconds, 16-bit logical
// counter) without breaking old peers — a 24-byte header still
// decodes, with a zero (unstamped) timestamp. Headers are only
// emitted for traced or HLC-stamped calls, so plain traffic is
// byte-identical to the old format in both directions.
const (
	traceMagic     = 0x01
	traceHeaderLen = 24
	hlcHeaderLen   = traceHeaderLen + 8
)

// appendHeader appends the trace header to dst when sc is valid or ts
// is a real timestamp, and nothing otherwise.
func appendHeader(dst []byte, sc telemetry.SpanContext, ts hlc.Timestamp) []byte {
	if !sc.Valid() && ts.IsZero() {
		return dst
	}
	dst = append(dst, traceMagic, hlcHeaderLen)
	dst = binary.BigEndian.AppendUint64(dst, sc.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, sc.SpanID)
	dst = binary.BigEndian.AppendUint64(dst, sc.Parent)
	return binary.BigEndian.AppendUint64(dst, uint64(ts))
}

// EncodePayload renders a frame payload: the command text, prefixed
// with a header when sc is valid or ts is a real timestamp.
func EncodePayload(sc telemetry.SpanContext, ts hlc.Timestamp, cmdText string) []byte {
	buf := make([]byte, 0, 2+hlcHeaderLen+len(cmdText))
	return append(appendHeader(buf, sc, ts), cmdText...)
}

// SplitPayload separates a frame payload into its trace context (the
// zero SpanContext when the payload carries no header), its HLC
// timestamp (zero when absent, including headers from peers that
// predate the HLC field), and the command text. Payloads that merely
// look like they start a header but are malformed are returned whole,
// so the command parser reports them instead of this layer guessing.
func SplitPayload(payload []byte) (telemetry.SpanContext, hlc.Timestamp, []byte) {
	if len(payload) < 2 || payload[0] != traceMagic {
		return telemetry.SpanContext{}, 0, payload
	}
	hlen := int(payload[1])
	if hlen < traceHeaderLen || len(payload) < 2+hlen {
		return telemetry.SpanContext{}, 0, payload
	}
	sc := telemetry.SpanContext{
		TraceID: binary.BigEndian.Uint64(payload[2:]),
		SpanID:  binary.BigEndian.Uint64(payload[10:]),
		Parent:  binary.BigEndian.Uint64(payload[18:]),
	}
	var ts hlc.Timestamp
	if hlen >= hlcHeaderLen {
		ts = hlc.Timestamp(binary.BigEndian.Uint64(payload[26:]))
	}
	return sc, ts, payload[2+hlen:]
}

// ReadCmd reads one frame straight from r, strips any trace header,
// and parses the command line.
func ReadCmd(r io.Reader) (*cmdlang.CmdLine, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	_, _, text := SplitPayload(payload)
	return cmdlang.ParseBytes(text)
}
