package ace

// One testing.B benchmark per experiment in DESIGN.md's index
// (E3–E15). These exercise the same code paths as cmd/acebench, which
// prints the full tables; EXPERIMENTS.md records paper-vs-measured.
// E1 and E2 are measured by the benchmark (bash bench/run.sh, the
// `call` workload).

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/apps"
	"ace/internal/asd"
	"ace/internal/authdb"
	"ace/internal/cmdlang"
	"ace/internal/core"
	"ace/internal/daemon"
	"ace/internal/hier"
	"ace/internal/keynote"
	"ace/internal/launcher"
	"ace/internal/media"
	"ace/internal/monitor"
	"ace/internal/pstore"
	"ace/internal/rmi"
	"ace/internal/simhost"
	"ace/internal/wire"
)

// BenchmarkE2CmdVsRMI runs a full loopback call through the ACE
// daemon stack beside an RMI-style gob call. It is the harness of
// `make profile-call` and reports no number of record: the §2.2 claim
// is `vs_rmi_ratio` on the benchmark's `call` workload.
func BenchmarkE2CmdVsRMI(b *testing.B) {
	b.Run("ace", func(b *testing.B) {
		d := daemon.New(daemon.Config{Name: "e2"})
		d.Handle(cmdlang.CommandSpec{Name: "move", AllowExtra: true},
			func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		defer d.Stop()
		pool := daemon.NewPool(nil)
		defer pool.Close()
		cmd := cmdlang.New("move").SetFloat("pan", 45.5).SetFloat("tilt", -10.25)
		if _, err := pool.Call(d.Addr(), cmd); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pool.Call(d.Addr(), cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rmi", func(b *testing.B) {
		srv := rmi.NewServer()
		srv.Register("camera", benchCamera{})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Stop()
		c, err := rmi.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call("camera", "Move", 45.5, -10.25); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call("camera", "Move", 45.5, -10.25); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type benchCamera struct{}

// Move is the RMI-side counterpart of the ACE "move" command.
func (benchCamera) Move(pan, tilt float64) string { return "ok" }

// BenchmarkE3ASDLookup measures Fig 7 lookups against a 1000-entry
// directory.
func BenchmarkE3ASDLookup(b *testing.B) {
	dir := asd.New(asd.Config{ReapInterval: time.Hour})
	if err := dir.Start(); err != nil {
		b.Fatal(err)
	}
	defer dir.Stop()
	for i := 0; i < 1000; i++ {
		dir.Directory().Register(asd.Entry{ //nolint:errcheck
			Name: fmt.Sprintf("svc%04d", i), Addr: "h:1",
			Class: hier.ClassPTZCamera, Lease: time.Hour,
		})
	}
	pool := daemon.NewPool(nil)
	defer pool.Close()
	cmd := cmdlang.New(daemon.CmdLookup).SetWord("name", "svc0500")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Call(dir.Addr(), cmd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4NotifyFanout measures Fig 8 dispatch to 16 listeners.
func BenchmarkE4NotifyFanout(b *testing.B) {
	source := daemon.New(daemon.Config{Name: "e4src"})
	source.Handle(cmdlang.CommandSpec{Name: "tick"},
		func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
	if err := source.Start(); err != nil {
		b.Fatal(err)
	}
	defer source.Stop()

	const listeners = 16
	var delivered atomic.Int64
	pool := daemon.NewPool(nil)
	defer pool.Close()
	for i := 0; i < listeners; i++ {
		sink := daemon.New(daemon.Config{Name: fmt.Sprintf("e4sink%d", i)})
		sink.Handle(cmdlang.CommandSpec{Name: "onTick", AllowExtra: true},
			func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
				delivered.Add(1)
				return nil, nil
			})
		if err := sink.Start(); err != nil {
			b.Fatal(err)
		}
		defer sink.Stop()
		if err := daemon.Subscribe(pool, source.Addr(), "tick", sink.Name(), sink.Addr(), "onTick"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Call(source.Addr(), cmdlang.New("tick")); err != nil {
			b.Fatal(err)
		}
	}
	// Drain before the bench ends, but not for ever: a delivery the
	// source shed at its 64-in-flight bound never arrives (see RunE4).
	want := int64(b.N * listeners)
	for deadline := time.Now().Add(5 * time.Second); delivered.Load() < want && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	b.ReportMetric(float64(delivered.Load())/float64(want), "delivered_share")
}

// BenchmarkE5Startup measures the Fig 9 startup sequence (ASD
// registration only; the full three-step sequence is in acebench E5).
func BenchmarkE5Startup(b *testing.B) {
	dir := asd.New(asd.Config{})
	if err := dir.Start(); err != nil {
		b.Fatal(err)
	}
	defer dir.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := daemon.New(daemon.Config{Name: fmt.Sprintf("e5_%d", i), ASDAddr: dir.Addr()})
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		d.Stop()
	}
}

// BenchmarkE6AuthOverhead measures the Fig 10 gate with cached
// credentials.
func BenchmarkE6AuthOverhead(b *testing.B) {
	ring := keynote.NewKeyring()
	admin, err := keynote.NewPrincipal("admin")
	if err != nil {
		b.Fatal(err)
	}
	ring.Add(admin)
	cred := keynote.MustAssertion("admin", `"user"`, "", "")
	if err := cred.Sign(admin); err != nil {
		b.Fatal(err)
	}
	store := authdb.NewStore()
	if err := store.Add(cred); err != nil {
		b.Fatal(err)
	}
	db := authdb.New(daemon.Config{}, store)
	if err := db.Start(); err != nil {
		b.Fatal(err)
	}
	defer db.Stop()
	policy := keynote.MustAssertion(keynote.Policy, `"admin"`, "", "")
	checker, err := keynote.NewChecker(ring, policy)
	if err != nil {
		b.Fatal(err)
	}
	authz := &authdb.Authorizer{
		Pool: daemon.NewPool(nil), AuthDBAddr: db.Addr(),
		Checker: checker, Service: "svc", CacheSize: 16,
	}
	cmd := cmdlang.New("move").SetFloat("x", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := authz.Authorize("user", cmd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Placement runs a full 32-job placement + drain round per
// iteration (least-loaded policy).
func BenchmarkE7Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		srm := monitor.NewSRM(daemon.Config{}, 1)
		if err := srm.Start(); err != nil {
			b.Fatal(err)
		}
		cluster := simhost.NewCluster()
		var stops []func()
		for j, sp := range []float64{100, 200, 400} {
			host := simhost.NewHost(fmt.Sprintf("h%d", j), sp, 1<<30, 0)
			cluster.Add(host)
			hrm := monitor.NewHRM(daemon.Config{}, host)
			if err := hrm.Start(); err != nil {
				b.Fatal(err)
			}
			hal := launcher.NewHAL(daemon.Config{}, host)
			if err := hal.Start(); err != nil {
				b.Fatal(err)
			}
			stops = append(stops, hrm.Stop, hal.Stop)
			srm.AddHost(host.Name(), hrm.Addr(), hal.Addr())
		}
		sal := launcher.NewSAL(daemon.Config{}, srm)
		if err := sal.Start(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			if _, err := sal.Launch(fmt.Sprintf("job%d", j), 50, 0, monitor.PolicyLeastLoaded); err != nil {
				b.Fatal(err)
			}
		}
		cluster.AdvanceUntilIdle(0.5, 10000)
		sal.Stop()
		for _, stop := range stops {
			stop()
		}
		srm.Stop()
	}
}

// BenchmarkE8AudioPipeline measures the per-frame DSP cost of the Fig
// 15 chain: mix two sources, cancel echo, detect speech.
func BenchmarkE8AudioPipeline(b *testing.B) {
	local := media.ToneFrame(0, 700, 5000)
	remote := media.ToneFrame(0, 500, 5000)
	ec := media.NewEchoCanceller(80, 0.6)
	var stc media.SpeechToCommand
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mixed := media.Mix(local, remote)
		clean := ec.Process(mixed, remote)
		stc.Feed(clean) //nolint:errcheck
	}
}

// BenchmarkE9WorkspaceBringup measures scan → workspace credentials on
// a running environment.
func BenchmarkE9WorkspaceBringup(b *testing.B) {
	env, err := core.Start(core.Options{WithIdent: true})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Stop()
	rng := rand.New(rand.NewSource(9))
	user, err := env.RegisterUser("bench_user", "Bench User", "pw", rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.IdentifyByFingerprint(user, "hawk", rng, 0.02); err != nil {
			b.Fatal(err)
		}
		if _, err := env.OpenViewer("bench_user", ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10PStore measures quorum puts and gets on a 3-replica
// cluster (Fig 17).
func BenchmarkE10PStore(b *testing.B) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.StopAll()
	pool := daemon.NewPool(nil)
	defer pool.Close()
	client := pstore.NewClient(pool, cluster.Addrs())
	if _, err := client.Put("/bench/k", []byte("v")); err != nil {
		b.Fatal(err)
	}
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Put("/bench/k", []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get-quorum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := client.Get("/bench/k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get-any", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := client.GetAny("/bench/k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Scale measures ASD lookup throughput under parallel
// clients (§9).
func BenchmarkE11Scale(b *testing.B) {
	dir := asd.New(asd.Config{})
	if err := dir.Start(); err != nil {
		b.Fatal(err)
	}
	defer dir.Stop()
	dir.Directory().Register(asd.Entry{Name: "target", Addr: "h:1", Lease: time.Hour}) //nolint:errcheck
	b.RunParallel(func(pb *testing.PB) {
		c, err := wire.Dial(nil, dir.Addr())
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		cmd := cmdlang.New(daemon.CmdLookup).SetWord("name", "target")
		for pb.Next() {
			if _, err := c.Call(cmd); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkE12TLSOverhead compares command latency over TLS and
// plaintext transports (§3.1).
func BenchmarkE12TLSOverhead(b *testing.B) {
	run := func(b *testing.B, serverT, clientT *wire.Transport) {
		d := daemon.New(daemon.Config{Name: "e12", Transport: serverT})
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		defer d.Stop()
		c, err := wire.Dial(clientT, d.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		cmd := cmdlang.New(daemon.CmdPing)
		if _, err := c.Call(cmd); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Call(cmd); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plaintext", func(b *testing.B) { run(b, nil, nil) })
	b.Run("tls", func(b *testing.B) {
		ca, err := wire.NewCA("bench")
		if err != nil {
			b.Fatal(err)
		}
		serverT, err := wire.NewTransport(ca, "e12")
		if err != nil {
			b.Fatal(err)
		}
		clientT, err := wire.NewTransport(ca, "client")
		if err != nil {
			b.Fatal(err)
		}
		run(b, serverT, clientT)
	})
}

// BenchmarkE13Recovery measures a robust application's crash→restore
// cycle (§5.3).
func BenchmarkE13Recovery(b *testing.B) {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.StopAll()
	pool := daemon.NewPool(nil)
	defer pool.Close()
	ckpt := &apps.Checkpointer{
		Client: pstore.NewClient(pool, cluster.Addrs()),
		Path:   "/bench/counter",
	}
	counter := apps.NewRobustCounter(daemon.Config{Name: "bcounter"}, ckpt)
	if err := counter.Start(); err != nil {
		b.Fatal(err)
	}
	if _, err := pool.Call(counter.Addr(), cmdlang.New("increment")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counter.Stop()
		counter = apps.NewRobustCounter(daemon.Config{Name: "bcounter"}, ckpt)
		if err := counter.Start(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if counter.Value() != 1 {
		b.Fatalf("state lost: %d", counter.Value())
	}
	counter.Stop()
}

// BenchmarkE14Converter measures raw→"MPEG" conversion of a 64 KiB
// video-like payload (Fig 13).
func BenchmarkE14Converter(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	line := make([]byte, 256)
	rng.Read(line) //nolint:errcheck
	payload := make([]byte, 0, 64*1024)
	for len(payload) < 64*1024 {
		payload = append(payload, line...)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := media.Convert(payload, media.FormatRaw, media.FormatMPEG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Distribution measures fan-out of one frame to 4 sinks
// through the distribution daemon (Fig 14).
func BenchmarkE15Distribution(b *testing.B) {
	dist := media.NewDistribution(daemon.Config{})
	if err := dist.Start(); err != nil {
		b.Fatal(err)
	}
	defer dist.Stop()
	var counts [4]*atomic.Int64
	for i := range counts {
		counts[i] = &atomic.Int64{}
		sink := media.NewAudioSink(daemon.Config{Name: fmt.Sprintf("bsink%d", i)})
		n := counts[i]
		sink.SetOnFrame(func(media.Frame) { n.Add(1) })
		if err := sink.Start(); err != nil {
			b.Fatal(err)
		}
		defer sink.Stop()
		dist.AddSink(sink.DataAddr())
	}
	capture := media.NewAudioCapture(daemon.Config{})
	if err := capture.Start(); err != nil {
		b.Fatal(err)
	}
	defer capture.Stop()
	frame := media.ToneFrame(0, 440, 4000).Marshal()
	b.SetBytes(int64(len(frame) * len(counts)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := capture.SendData(dist.DataAddr(), frame); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			// Periodic pacing: let the UDP queues drain so datagram
			// loss does not distort the measurement.
			for counts[0].Load() < int64(i)-32 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}
