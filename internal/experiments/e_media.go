package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/media"
)

func init() {
	register("E8", "two-site audio conferencing pipeline", RunE8)
	register("E14", "converter service throughput", RunE14)
	register("E15", "distribution service fan-out", RunE15)
}

// RunE8 reproduces Fig 15's shape: two sites exchange audio through
// distribution services; each site cancels the echo of the remote
// signal; the recorder taps the stream; speech-to-command recognizes
// a spoken ACE command.
func RunE8() (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "two-site conferencing: throughput, echo, command recognition",
		Source:  "Fig 15, §4.15",
		Columns: []string{"metric", "value"},
	}

	// Inter-site hop: a distribution daemon per direction, real UDP.
	distAtoB := media.NewDistribution(daemon.Config{Name: "dist_a_to_b"})
	if err := distAtoB.Start(); err != nil {
		return nil, err
	}
	defer distAtoB.Stop()
	sinkB := media.NewAudioSink(daemon.Config{Name: "site_b_in"})
	if err := sinkB.Start(); err != nil {
		return nil, err
	}
	defer sinkB.Stop()
	recorder := media.NewAudioSink(daemon.Config{Name: "recorder"})
	if err := recorder.Start(); err != nil {
		return nil, err
	}
	defer recorder.Stop()
	distAtoB.AddSink(sinkB.DataAddr())
	distAtoB.AddSink(recorder.DataAddr())

	arrived := make(chan media.Frame, 4096)
	sinkB.SetOnFrame(func(f media.Frame) { arrived <- f })

	capture := media.NewAudioCapture(daemon.Config{Name: "site_a_mic"})
	if err := capture.Start(); err != nil {
		return nil, err
	}
	defer capture.Stop()

	// Site A speaks a command, then keeps talking (tone).
	const toneFrames = 400
	start := time.Now()
	spoken, err := media.EncodeCommand("camera on", 0)
	if err != nil {
		return nil, err
	}
	for _, f := range spoken {
		if err := capture.SendData(distAtoB.DataAddr(), f.Marshal()); err != nil {
			return nil, err
		}
	}
	if _, err := capture.StreamTone(distAtoB.DataAddr(), 500, 6000, toneFrames); err != nil {
		return nil, err
	}
	total := len(spoken) + toneFrames

	// Site B: the mic hears local speech plus an echo of the remote
	// signal played on the room speakers; the echo canceller, fed the
	// remote frames as reference, removes it.
	const echoDelay = 80 // samples
	const echoGain = 0.6
	ec := media.NewEchoCanceller(echoDelay, echoGain)
	echoPath := media.NewEchoCanceller(echoDelay, -echoGain) // reuse as delay line to *add* echo
	noise := rand.New(rand.NewSource(8))
	var echoEnergy, residualEnergy float64
	received := 0
	deadline := time.After(10 * time.Second)
	for received < total {
		select {
		case remote := <-arrived:
			received++
			// Synthesize B's mic: room noise + echo of remote.
			room := media.NewFrame(remote.Seq)
			for i := range room.Samples {
				room.Samples[i] = int16(noise.Intn(9) - 4)
			}
			mic := echoPath.Process(room, remote) // room - (-gain)*delayed = room + echo
			echoEnergy += mic.Energy()
			clean := ec.Process(mic, remote)
			residualEnergy += clean.Energy()
		case <-deadline:
			return nil, fmt.Errorf("E8: only %d/%d frames arrived", received, total)
		}
	}
	elapsed := time.Since(start)

	// Wait for the recorder tap and the spoken command recognition.
	recDeadline := time.Now().Add(5 * time.Second)
	for len(recorder.Recorded()) < total || len(recorder.Commands()) == 0 {
		if time.Now().After(recDeadline) {
			return nil, fmt.Errorf("E8: recorder has %d frames, %d commands",
				len(recorder.Recorded()), len(recorder.Commands()))
		}
		time.Sleep(time.Millisecond)
	}

	realtime := float64(total) * media.FrameSamples / media.SampleRate
	suppressionDB := 10 * logRatio(echoEnergy, residualEnergy)
	t.AddRow("frames end-to-end", total)
	t.AddRow("pipeline throughput (frames/s)", float64(total)/elapsed.Seconds())
	t.AddRow("realtime factor", fmt.Sprintf("%.0fx", realtime/elapsed.Seconds()))
	t.AddRow("echo suppression (dB)", suppressionDB)
	t.AddRow("recorder frames", len(recorder.Recorded()))
	t.AddRow("recognized command", recorder.Commands()[0])
	t.Notes = append(t.Notes, "expected shape: pipeline runs far faster than realtime; echo suppressed by tens of dB; the spoken command is recognized at the far site")
	return t, nil
}

func logRatio(num, den float64) float64 {
	if den <= 0 {
		den = 1e-12
	}
	if num <= 0 {
		num = 1e-12
	}
	return math.Log10(num / den)
}

// RunE14 measures the Converter service (Fig 13): raw→"MPEG"
// throughput for video-like payloads over the command channel.
func RunE14() (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "converter service throughput (raw→mpegsim)",
		Source:  "Fig 13, §4.12",
		Columns: []string{"payload KB", "compressed KB", "ratio", "convert MB/s (in-process)", "service calls/s"},
	}
	conv := media.NewConverter(daemon.Config{})
	if err := conv.Start(); err != nil {
		return nil, err
	}
	defer conv.Stop()
	pool := daemon.NewPool(nil)
	defer pool.Close()

	rng := rand.New(rand.NewSource(14))
	for _, kb := range []int{4, 64, 512} {
		// Video-like payload: repetitive scanlines with noise.
		line := make([]byte, 256)
		rng.Read(line) //nolint:errcheck
		payload := bytes.Repeat(line, kb*1024/len(line))

		out, err := media.Convert(payload, media.FormatRaw, media.FormatMPEG)
		if err != nil {
			return nil, err
		}
		const n = 40
		d := timeOp(n, func() { media.Convert(payload, media.FormatRaw, media.FormatMPEG) }) //nolint:errcheck
		mbs := float64(len(payload)) / d.Seconds() / (1 << 20)

		// Over the command channel, framing included: the payload
		// travels as a byte string, so 512 KB fits the 1 MiB frame.
		callCmd := cmdlang.New("convert").
			SetBytes("data", payload).
			SetWord("from", media.FormatRaw).SetWord("to", media.FormatMPEG)
		if _, err := pool.Call(conv.Addr(), callCmd); err != nil {
			return nil, err
		}
		var convErr error
		sd := timeOp(10, func() {
			if _, err := pool.Call(conv.Addr(), callCmd); err != nil && convErr == nil {
				convErr = err
			}
		})
		if convErr != nil {
			return nil, convErr
		}

		t.AddRow(kb, float64(len(out))/1024,
			fmt.Sprintf("%.1f%%", 100*float64(len(out))/float64(len(payload))),
			mbs, 1/sd.Seconds())
	}
	return t, nil
}

// RunE15 measures the Distribution service (Fig 14): forwarding rate
// versus the number of subscribed sinks.
func RunE15() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "distribution fan-out: delivery vs sink count",
		Source:  "Fig 14, §4.13",
		Columns: []string{"sinks", "frames in", "frames delivered", "deliver rate kpkt/s"},
	}
	for _, sinks := range []int{1, 2, 4, 8} {
		dist := media.NewDistribution(daemon.Config{})
		if err := dist.Start(); err != nil {
			return nil, err
		}
		var sinkDaemons []*media.AudioSink
		for i := 0; i < sinks; i++ {
			s := media.NewAudioSink(daemon.Config{Name: fmt.Sprintf("e15sink%d", i)})
			if err := s.Start(); err != nil {
				return nil, err
			}
			sinkDaemons = append(sinkDaemons, s)
			dist.AddSink(s.DataAddr())
		}
		capture := media.NewAudioCapture(daemon.Config{})
		if err := capture.Start(); err != nil {
			return nil, err
		}

		const frames = 300
		start := time.Now()
		if _, err := capture.StreamTone(dist.DataAddr(), 440, 4000, frames); err != nil {
			return nil, err
		}
		want := frames * sinks
		deadline := time.Now().Add(5 * time.Second)
		delivered := 0
		for {
			delivered = 0
			for _, s := range sinkDaemons {
				delivered += len(s.Recorded())
			}
			if delivered >= want*95/100 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		elapsed := time.Since(start)
		t.AddRow(sinks, frames, delivered, float64(delivered)/elapsed.Seconds()/1000)

		capture.Stop()
		for _, s := range sinkDaemons {
			s.Stop()
		}
		dist.Stop()
	}
	t.Notes = append(t.Notes, "UDP semantics: delivery ≥95% counts as complete; rate scales with sink count")
	return t, nil
}
