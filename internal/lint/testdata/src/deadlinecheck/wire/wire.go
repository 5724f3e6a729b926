// Package wire is a stand-in for ace/internal/wire: ReadFrame (the
// function and the Reader's method) and WriteFrame are deadline sinks
// by name; WriteReply writes through writeFrame, which bounds its
// callers' exposure as a deadline would.
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

// writeFrame stands in for the real one, whose io.Writer call fans out
// in the call graph to every Write in the module, blocking ones
// included; here it calls a sink outright. Its callers are not exposed:
// the real one writes to a connection's Outbox, which never blocks.
func writeFrame(c *Conn, f *Frame) (int, error) { return 0, WriteFrame(c, f) }
