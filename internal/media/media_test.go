package media

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
)

func TestFrameMarshalRoundTrip(t *testing.T) {
	f := ToneFrame(42, 440, 8000)
	back, err := UnmarshalFrame(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 42 || len(back.Samples) != FrameSamples {
		t.Fatalf("back=%+v", back)
	}
	for i := range f.Samples {
		if f.Samples[i] != back.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	// Malformed packets rejected.
	if _, err := UnmarshalFrame([]byte{1, 2, 3}); err == nil {
		t.Fatal("short packet accepted")
	}
	bad := f.Marshal()
	bad[4], bad[5], bad[6], bad[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := UnmarshalFrame(bad); err == nil {
		t.Fatal("length-lying packet accepted")
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(seq uint32, raw []int16) bool {
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		fr := Frame{Seq: seq, Samples: raw}
		back, err := UnmarshalFrame(fr.Marshal())
		if err != nil || back.Seq != seq || len(back.Samples) != len(raw) {
			return false
		}
		for i := range raw {
			if raw[i] != back.Samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixSumsAndSaturates(t *testing.T) {
	a := ToneFrame(0, 500, 10000)
	b := ToneFrame(0, 500, 10000)
	mixed := Mix(a, b)
	// Same-phase same-frequency tones double (where not saturated).
	for i := range mixed.Samples {
		want := int32(a.Samples[i]) * 2
		got := int32(mixed.Samples[i])
		if want <= math.MaxInt16 && want >= math.MinInt16 && got != want {
			t.Fatalf("sample %d: got %d want %d", i, got, want)
		}
	}
	// Saturation at the rails.
	loud1 := ToneFrame(0, 500, 30000)
	loud2 := ToneFrame(0, 500, 30000)
	sat := Mix(loud1, loud2)
	for _, s := range sat.Samples {
		if s > math.MaxInt16 || s < math.MinInt16 {
			t.Fatal("unclamped sample")
		}
	}
	// Mixing with silence is identity.
	silent := NewFrame(0)
	id := Mix(a, silent)
	for i := range a.Samples {
		if id.Samples[i] != a.Samples[i] {
			t.Fatal("silence changed the signal")
		}
	}
}

func TestEchoCancellerRemovesDelayedEcho(t *testing.T) {
	const delay = 40 // samples
	const gain = 0.5
	ec := NewEchoCanceller(delay, gain)

	// Build a far-end reference stream and a mic stream that hears
	// the reference delayed and attenuated (plus nothing else: the
	// room is quiet).
	rng := rand.New(rand.NewSource(5))
	var refHist []int16
	var rawEnergy, cleanEnergy float64
	for n := 0; n < 20; n++ {
		ref := NewFrame(uint32(n))
		for i := range ref.Samples {
			ref.Samples[i] = int16(rng.Intn(16000) - 8000)
		}
		refHist = append(refHist, ref.Samples...)

		mic := NewFrame(uint32(n))
		for i := range mic.Samples {
			abs := n*FrameSamples + i
			if abs-delay >= 0 {
				mic.Samples[i] = int16(gain * float64(refHist[abs-delay]))
			}
		}
		rawEnergy += mic.Energy()
		clean := ec.Process(mic, ref)
		cleanEnergy += clean.Energy()
	}
	if rawEnergy == 0 {
		t.Fatal("test produced no echo")
	}
	// The canceller should remove essentially all of the echo (only
	// int16 rounding remains).
	if cleanEnergy > rawEnergy*0.01 {
		t.Fatalf("residual energy %.1f of %.1f", cleanEnergy, rawEnergy)
	}
}

func TestEchoCancellerPreservesNearEndSpeech(t *testing.T) {
	ec := NewEchoCanceller(0, 1.0)
	speech := ToneFrame(0, 700, 5000)
	silentRef := NewFrame(0)
	out := ec.Process(speech, silentRef)
	if math.Abs(out.Energy()-speech.Energy()) > speech.Energy()*0.01 {
		t.Fatal("near-end speech damaged with silent far end")
	}
}

func TestTextToSpeechAndDetect(t *testing.T) {
	frames := TextToSpeech("abz_;", 0)
	if len(frames) != 5 {
		t.Fatalf("frames=%d", len(frames))
	}
	want := []rune{'a', 'b', 'z', '_', ';'}
	for i, f := range frames {
		r, ok := DetectLetter(f)
		if !ok || r != want[i] {
			t.Fatalf("frame %d: got %q ok=%v want %q", i, r, ok, want[i])
		}
	}
	// Silence and unknown tones are not letters.
	if _, ok := DetectLetter(NewFrame(0)); ok {
		t.Fatal("silence detected as letter")
	}
	// Off-grid tones (ordinary audio) must not be mistaken for
	// letters even at high amplitude — the 440 Hz case that would
	// otherwise read as a stream of 'b's.
	for _, freq := range []float64{430, 440, 730, 1150, 1990} {
		if r, ok := DetectLetter(ToneFrame(0, freq, 8000)); ok {
			t.Errorf("off-grid %v Hz detected as %q", freq, r)
		}
	}
}

func TestSpeechToCommandAssembly(t *testing.T) {
	frames, err := EncodeCommand("camera on", 0)
	if err != nil {
		t.Fatal(err)
	}
	var stc SpeechToCommand
	var got []string
	for _, f := range frames {
		if cmd, ok := stc.Feed(f); ok {
			got = append(got, cmd)
		}
	}
	if len(got) != 1 || got[0] != "camera on;" {
		t.Fatalf("got=%v", got)
	}
	// Noise frames between letters don't break assembly (no
	// terminator yet, so the letters stay pending).
	frames2 := TextToSpeech("zoom", 0)
	var stc2 SpeechToCommand
	for _, f := range frames2 {
		stc2.Feed(f)           //nolint:errcheck
		stc2.Feed(NewFrame(0)) //nolint:errcheck — interleaved silence
	}
	if stc2.Pending() != "zoom" {
		t.Fatalf("pending=%q", stc2.Pending())
	}
	// Unsupported characters are rejected by the encoder.
	if _, err := EncodeCommand("über", 0); err == nil {
		t.Fatal("non-encodable text accepted")
	}
}

func TestConvertRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("video-scanline-data "), 200)
	compressed, err := Convert(payload, FormatRaw, FormatMPEG)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(payload) {
		t.Fatalf("compression failed: %d -> %d", len(payload), len(compressed))
	}
	back, err := Convert(compressed, FormatMPEG, FormatRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("lossy round trip")
	}
	// Identity and unsupported pairs.
	same, err := Convert(payload, FormatRaw, FormatRaw)
	if err != nil || !bytes.Equal(same, payload) {
		t.Fatal("identity conversion")
	}
	if _, err := Convert(payload, "avi", FormatMPEG); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := Convert([]byte("garbage"), FormatMPEG, FormatRaw); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

func TestQuickConvertRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		c, err := Convert(payload, FormatRaw, FormatMPEG)
		if err != nil {
			return false
		}
		back, err := Convert(c, FormatMPEG, FormatRaw)
		return err == nil && bytes.Equal(back, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func startDaemon[T interface {
	Start() error
	Stop()
}](t *testing.T, d T) T {
	t.Helper()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

func waitFrames(t *testing.T, sink *AudioSink, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.Recorded()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("sink has %d/%d frames", len(sink.Recorded()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConverterService(t *testing.T) {
	conv := startDaemon(t, NewConverter(daemon.Config{}))
	pool := daemon.NewPool(nil)
	defer pool.Close()

	payload := bytes.Repeat([]byte("frame"), 500)
	reply, err := pool.Call(conv.Addr(), convertCmd(payload, FormatRaw, FormatMPEG))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Int("outBytes", 0) >= reply.Int("inBytes", 0) {
		t.Fatalf("no compression: %v", reply)
	}
	compressed, _ := reply.Bytes("data")
	back, err := pool.Call(conv.Addr(), convertCmd(compressed, FormatMPEG, FormatRaw))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := back.Bytes("data"); !ok || !bytes.Equal(got, payload) {
		t.Fatal("round trip through service failed")
	}
}

func TestDistributionFanout(t *testing.T) {
	dist := startDaemon(t, NewDistribution(daemon.Config{}))
	sinkA := startDaemon(t, NewAudioSink(daemon.Config{Name: "sinkA"}))
	sinkB := startDaemon(t, NewAudioSink(daemon.Config{Name: "sinkB"}))
	capture := startDaemon(t, NewAudioCapture(daemon.Config{}))

	pool := daemon.NewPool(nil)
	defer pool.Close()
	for _, sink := range []*AudioSink{sinkA, sinkB} {
		if _, err := pool.Call(dist.Addr(), cmdlang.New("addSink").
			SetString("addr", sink.DataAddr())); err != nil {
			t.Fatal(err)
		}
	}

	// Capture streams into the distribution service, which fans out
	// to both sinks (Fig 14).
	if _, err := pool.Call(capture.Addr(), cmdlang.New("captureTone").
		SetString("dest", dist.DataAddr()).
		SetFloat("freq", 440).SetInt("frames", 25)); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, sinkA, 25)
	waitFrames(t, sinkB, 25)
	if n := dist.Telemetry().Snapshot().Counter(MetricForwarded); n != 25 {
		t.Fatalf("forwarded=%d", n)
	}
	// The tone arrives intact.
	rec := sinkA.Recorded()
	if rec[0].Energy() < 1e6 {
		t.Fatalf("energy=%f", rec[0].Energy())
	}
}

func TestSpokenCommandThroughPipeline(t *testing.T) {
	// Fig 15's speech-to-command path: a spoken command streamed
	// through a distribution service is recognized at the sink.
	dist := startDaemon(t, NewDistribution(daemon.Config{}))
	sink := startDaemon(t, NewAudioSink(daemon.Config{}))
	capture := startDaemon(t, NewAudioCapture(daemon.Config{}))

	pool := daemon.NewPool(nil)
	defer pool.Close()
	if _, err := pool.Call(dist.Addr(), cmdlang.New("addSink").
		SetString("addr", sink.DataAddr())); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Call(capture.Addr(), cmdlang.New("say").
		SetString("dest", dist.DataAddr()).
		SetString("text", "camera on")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(sink.Commands()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no command recognized; %d frames, pending %q",
				len(sink.Recorded()), sink.stc.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmds := sink.Commands()
	if cmds[0] != "camera on;" {
		t.Fatalf("cmds=%v", cmds)
	}
	// The sink's recorded command surfaces over the command channel
	// too.
	reply, err := pool.Call(sink.Addr(), cmdlang.New("recorded"))
	if err != nil {
		t.Fatal(err)
	}
	if got := reply.Strings("commands"); len(got) != 1 || !strings.Contains(got[0], "camera on") {
		t.Fatalf("recorded=%v", reply)
	}
}
