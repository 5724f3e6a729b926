// Package wire is a stand-in for ace/internal/wire: ReadFrame (the
// function and the Reader's method), WriteFrame and writeFrame are
// deadline sinks by name; WriteReply blocks only through writeFrame.
package wire

type Frame struct{}

type Conn struct{}

func ReadFrame(c *Conn) (*Frame, error) { return &Frame{}, nil }

func WriteFrame(c *Conn, f *Frame) error { return nil }

// Reader is a connection's buffered frame reader.
type Reader struct{ c *Conn }

func NewReader(c *Conn) *Reader { return &Reader{c: c} }

func (r *Reader) ReadFrame() (*Frame, error) { return &Frame{}, nil }

// WriteReply encodes and writes in one step, as the daemon shell's
// reply path does.
func WriteReply(c *Conn, f *Frame, seq int64) (int, error) { return writeFrame(c, f) }

func writeFrame(c *Conn, f *Frame) (int, error) { return 0, nil }
