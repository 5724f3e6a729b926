package media

import (
	"fmt"
	"net"
	"sync"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
)

// Hierarchy classes for the media daemons.
const (
	ClassConverter    = hier.Root + ".Media.Converter"
	ClassDistribution = hier.Root + ".Media.Distribution"
	ClassCapture      = hier.Root + ".Media.AudioCapture"
	ClassSink         = hier.Root + ".Media.AudioSink"
)

// Converter formats. The paper's example converts raw video to MPEG;
// the simulated codec performs real compression work (DEFLATE)
// behind the same service interface.
const (
	FormatRaw  = "raw"
	FormatMPEG = "mpegsim"
)

// Convert transforms a payload between formats (§4.12). One call
// performs one hop: identity, raw→coded, or coded→raw. Coded→coded
// paths are composed by the path-creation planner.
func Convert(payload []byte, from, to string) ([]byte, error) {
	switch {
	case from == to:
		return payload, nil
	case from == FormatRaw:
		c, ok := codecs[to]
		if !ok {
			return nil, fmt.Errorf("media: no conversion %s→%s", from, to)
		}
		return c.encode(payload)
	case to == FormatRaw:
		c, ok := codecs[from]
		if !ok {
			return nil, fmt.Errorf("media: no conversion %s→%s", from, to)
		}
		return c.decode(payload)
	default:
		return nil, fmt.Errorf("media: no single-hop conversion %s→%s (use path creation)", from, to)
	}
}

// Pair is one supported conversion direction.
type Pair struct{ From, To string }

// Converter is the ACE Converter service daemon (Fig 13): it sits
// between a producer and a consumer and converts data from one format
// to another. An instance may support only a subset of the known
// conversions, which is what makes automatic path creation necessary.
type Converter struct {
	*daemon.Daemon
	pairs []Pair
}

// AllPairs returns every single-hop conversion the codec table
// supports (raw↔each coded format).
func AllPairs() []Pair {
	var out []Pair
	for _, f := range Formats() {
		if f == FormatRaw {
			continue
		}
		out = append(out, Pair{FormatRaw, f}, Pair{f, FormatRaw})
	}
	return out
}

// NewConverter constructs the converter daemon. With no pairs given
// it supports every known conversion.
func NewConverter(dcfg daemon.Config, pairs ...Pair) *Converter {
	if dcfg.Name == "" {
		dcfg.Name = "converter"
	}
	if dcfg.Class == "" {
		dcfg.Class = ClassConverter
	}
	if len(pairs) == 0 {
		pairs = AllPairs()
	}
	c := &Converter{Daemon: daemon.New(dcfg), pairs: pairs}
	c.Handle(cmdlang.CommandSpec{
		Name: "convert",
		Doc:  "convert a payload between formats",
		Args: []cmdlang.ArgSpec{
			{Name: "data", Kind: cmdlang.KindBytes, Required: true, Doc: "payload"},
			{Name: "from", Kind: cmdlang.KindWord, Required: true},
			{Name: "to", Kind: cmdlang.KindWord, Required: true},
		},
	}, func(_ *daemon.Ctx, cl *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		from, to := cl.Str("from", ""), cl.Str("to", "")
		if !c.supports(from, to) {
			return cmdlang.Fail(cmdlang.CodeUnavailable,
				fmt.Sprintf("this converter does not support %s→%s", from, to)), nil
		}
		payload, _ := cl.Bytes("data")
		out, err := Convert(payload, from, to)
		if err != nil {
			return nil, err
		}
		return cmdlang.OK().
			SetBytes("data", out).
			SetInt("inBytes", int64(len(payload))).
			SetInt("outBytes", int64(len(out))), nil
	})
	c.Handle(cmdlang.CommandSpec{
		Name: "capabilities",
		Doc:  "advertise supported conversions (consumed by path creation)",
	}, func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		froms := make([]string, len(c.pairs))
		tos := make([]string, len(c.pairs))
		for i, p := range c.pairs {
			froms[i] = p.From
			tos[i] = p.To
		}
		return cmdlang.OK().
			Set("from", cmdlang.WordVector(froms...)).
			Set("to", cmdlang.WordVector(tos...)), nil
	})
	return c
}

func (c *Converter) supports(from, to string) bool {
	if from == to {
		return true
	}
	for _, p := range c.pairs {
		if p.From == from && p.To == to {
			return true
		}
	}
	return false
}

// Distribution is the ACE Distribution service daemon (Fig 14): it
// takes an input data stream on its UDP data channel and forwards it
// to a set of one or more destination services.
type Distribution struct {
	*daemon.Daemon

	mu    sync.Mutex
	sinks map[string]bool // data-channel addresses

	forwarded int64
	dropped   int64
}

// NewDistribution constructs the distribution daemon.
func NewDistribution(dcfg daemon.Config) *Distribution {
	d := &Distribution{sinks: make(map[string]bool)}
	if dcfg.Name == "" {
		dcfg.Name = "distribution"
	}
	if dcfg.Class == "" {
		dcfg.Class = ClassDistribution
	}
	dcfg.DataHandler = d.onData
	d.Daemon = daemon.New(dcfg)
	d.install()
	return d
}

func (d *Distribution) onData(pkt []byte, _ net.Addr) {
	d.mu.Lock()
	sinks := make([]string, 0, len(d.sinks))
	for s := range d.sinks {
		sinks = append(sinks, s)
	}
	d.forwarded++
	d.mu.Unlock()
	// Datagram semantics: a failed forward never stalls the stream,
	// but drops are counted so sinks that fall off are visible.
	for _, s := range sinks {
		if err := d.SendData(s, pkt); err != nil {
			d.mu.Lock()
			d.dropped++
			d.mu.Unlock()
		}
	}
}

// AddSink registers a destination data-channel address.
func (d *Distribution) AddSink(addr string) {
	d.mu.Lock()
	d.sinks[addr] = true
	d.mu.Unlock()
}

// Dropped returns the number of forwards that failed to send.
func (d *Distribution) Dropped() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// Forwarded returns the number of packets fanned out.
func (d *Distribution) Forwarded() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.forwarded
}

func (d *Distribution) install() {
	d.Handle(cmdlang.CommandSpec{
		Name: "addSink",
		Doc:  "forward the input stream to another service's data channel",
		Args: []cmdlang.ArgSpec{{Name: "addr", Kind: cmdlang.KindString, Required: true}},
	}, func(_ *daemon.Ctx, cl *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		d.AddSink(cl.Str("addr", ""))
		return nil, nil
	})
	//acelint:ignore verbconformance operator verb: issued through acectl's dynamic call/raw passthrough
	d.Handle(cmdlang.CommandSpec{
		Name: "removeSink",
		Args: []cmdlang.ArgSpec{{Name: "addr", Kind: cmdlang.KindString, Required: true}},
	}, func(_ *daemon.Ctx, cl *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		d.mu.Lock()
		delete(d.sinks, cl.Str("addr", ""))
		d.mu.Unlock()
		return nil, nil
	})
	//acelint:ignore verbconformance operator verb: issued through acectl's dynamic call/raw passthrough
	d.Handle(cmdlang.CommandSpec{Name: "listSinks"},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			d.mu.Lock()
			var addrs []string
			for s := range d.sinks {
				addrs = append(addrs, s)
			}
			d.mu.Unlock()
			return cmdlang.OK().SetInt("count", int64(len(addrs))).Set("addrs", cmdlang.StringVector(addrs...)), nil
		})
}

// AudioCapture is the Audio Capture service: it "captures" (here:
// synthesizes) an audio signal, digitizes it, and streams it to a
// destination data channel.
type AudioCapture struct {
	*daemon.Daemon
	mu  sync.Mutex
	seq uint32
}

// NewAudioCapture constructs the capture daemon.
func NewAudioCapture(dcfg daemon.Config) *AudioCapture {
	if dcfg.Name == "" {
		dcfg.Name = "audiocapture"
	}
	if dcfg.Class == "" {
		dcfg.Class = ClassCapture
	}
	a := &AudioCapture{Daemon: daemon.New(dcfg)}
	a.Handle(cmdlang.CommandSpec{
		Name: "captureTone",
		Doc:  "capture n frames of a tone and stream them to a data channel",
		Args: []cmdlang.ArgSpec{
			{Name: "dest", Kind: cmdlang.KindString, Required: true},
			{Name: "freq", Kind: cmdlang.KindFloat, Required: true},
			{Name: "frames", Kind: cmdlang.KindInt, Required: true},
			{Name: "amp", Kind: cmdlang.KindFloat},
		},
	}, func(_ *daemon.Ctx, cl *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		dest := cl.Str("dest", "")
		n := int(cl.Int("frames", 0))
		sent, err := a.StreamTone(dest, cl.Float("freq", 440), cl.Float("amp", 8000), n)
		if err != nil {
			return nil, err
		}
		return cmdlang.OK().SetInt("sent", int64(sent)), nil
	})
	a.Handle(cmdlang.CommandSpec{
		Name: "say",
		Doc:  "capture a spoken command and stream it (speech simulation)",
		Args: []cmdlang.ArgSpec{
			{Name: "dest", Kind: cmdlang.KindString, Required: true},
			{Name: "text", Kind: cmdlang.KindString, Required: true},
		},
	}, func(_ *daemon.Ctx, cl *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
		frames, err := EncodeCommand(cl.Str("text", ""), a.nextSeq(0))
		if err != nil {
			return nil, err
		}
		dest := cl.Str("dest", "")
		for _, f := range frames {
			if err := a.SendData(dest, f.Marshal()); err != nil {
				return nil, err
			}
		}
		a.nextSeq(uint32(len(frames)))
		return cmdlang.OK().SetInt("sent", int64(len(frames))), nil
	})
	return a
}

func (a *AudioCapture) nextSeq(advance uint32) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.seq
	a.seq += advance
	return s
}

// StreamTone sends n tone frames to dest.
func (a *AudioCapture) StreamTone(dest string, freq, amp float64, n int) (int, error) {
	start := a.nextSeq(uint32(n))
	phase := 0.0
	for i := 0; i < n; i++ {
		var samples []int16
		samples, phase = Tone(freq, amp, FrameSamples, phase)
		f := Frame{Seq: start + uint32(i), Samples: samples}
		if err := a.SendData(dest, f.Marshal()); err != nil {
			return i, err
		}
	}
	return n, nil
}

// AudioSink receives frames on its data channel; it serves as Audio
// Play (driving a speaker), Audio Recorder ("records on hard media"),
// and the input side of Speech-to-Command, depending on what the
// caller does with the frames.
type AudioSink struct {
	*daemon.Daemon

	mu     sync.Mutex
	frames []Frame
	stc    SpeechToCommand
	cmds   []string
	// OnFrame, if set, observes every received frame.
	onFrame func(Frame)
}

// NewAudioSink constructs a sink daemon.
func NewAudioSink(dcfg daemon.Config) *AudioSink {
	s := &AudioSink{}
	if dcfg.Name == "" {
		dcfg.Name = "audiosink"
	}
	if dcfg.Class == "" {
		dcfg.Class = ClassSink
	}
	dcfg.DataHandler = s.onData
	s.Daemon = daemon.New(dcfg)
	s.install()
	return s
}

// SetOnFrame installs a frame observer (used by pipeline stages).
func (s *AudioSink) SetOnFrame(fn func(Frame)) {
	s.mu.Lock()
	s.onFrame = fn
	s.mu.Unlock()
}

func (s *AudioSink) onData(pkt []byte, _ net.Addr) {
	f, err := UnmarshalFrame(pkt)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.frames = append(s.frames, f)
	if cmd, ok := s.stc.Feed(f); ok {
		s.cmds = append(s.cmds, cmd)
	}
	fn := s.onFrame
	s.mu.Unlock()
	if fn != nil {
		fn(f)
	}
}

// Recorded returns the received frames (the recording).
func (s *AudioSink) Recorded() []Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Frame(nil), s.frames...)
}

// Commands returns the ACE commands recognized from the stream.
func (s *AudioSink) Commands() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.cmds...)
}

func (s *AudioSink) install() {
	s.Handle(cmdlang.CommandSpec{Name: "recorded", Doc: "how much audio has been recorded"},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
			s.mu.Lock()
			n := len(s.frames)
			var energy float64
			for _, f := range s.frames {
				energy += f.Energy()
			}
			cmds := append([]string(nil), s.cmds...)
			s.mu.Unlock()
			if n > 0 {
				energy /= float64(n)
			}
			return cmdlang.OK().
				SetInt("frames", int64(n)).
				SetFloat("meanEnergy", energy).
				Set("commands", cmdlang.StringVector(cmds...)), nil
		})
}
