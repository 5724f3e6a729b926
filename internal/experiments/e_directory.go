package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hier"
	"ace/internal/netlog"
	"ace/internal/roomdb"
	"ace/internal/userdb"
	"ace/internal/wire"
	"ace/internal/workspace"
)

func init() {
	register("E3", "ASD lookup under growing directories", RunE3)
	register("E4", "notification fan-out latency", RunE4)
	register("E5", "daemon startup sequence latency", RunE5)
	register("E11", "central-service scalability (ASD/AUD/WSS)", RunE11)
	register("E12", "TLS vs plaintext command transport", RunE12)
}

// RunE3 measures the Fig 7 lookup path as the directory grows, plus
// lease-expiry reaping.
func RunE3() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "ASD register/lookup throughput and lease reaping",
		Source:  "Fig 7, §2.4",
		Columns: []string{"directory size", "register µs/op", "lookup-by-name µs/op", "lookup-by-class µs/op", "reaped"},
	}
	for _, size := range []int{10, 100, 1000} {
		dir := asd.New(asd.Config{ReapInterval: time.Hour})
		if err := dir.Start(); err != nil {
			return nil, err
		}
		pool := daemon.NewPool(nil)

		regCmd := func(i int) *cmdlang.CmdLine {
			return cmdlang.New(daemon.CmdRegister).
				SetWord("name", fmt.Sprintf("svc%05d", i)).
				SetWord("host", "h").SetInt("port", int64(i)).
				SetString("addr", fmt.Sprintf("h:%d", i)).
				SetString("class", hier.ClassPTZCamera).
				SetInt("lease", 60000)
		}
		regStart := time.Now()
		for i := 0; i < size; i++ {
			if _, err := pool.Call(dir.Addr(), regCmd(i)); err != nil {
				return nil, err
			}
		}
		regUs := float64(time.Since(regStart).Microseconds()) / float64(size)

		// Record the first lookup failure: a dead directory would
		// otherwise be reported as an impossibly fast lookup time.
		var lookupErr error
		const lookups = 2000
		byName := timeOp(lookups, func() {
			if _, err := pool.Call(dir.Addr(), cmdlang.New(daemon.CmdLookup).
				SetWord("name", fmt.Sprintf("svc%05d", size/2))); err != nil && lookupErr == nil {
				lookupErr = err
			}
		})
		byClass := timeOp(200, func() {
			if _, err := pool.Call(dir.Addr(), cmdlang.New(daemon.CmdLookup).
				SetString("class", hier.ClassDevice).SetInt("limit", 5)); err != nil && lookupErr == nil {
				lookupErr = err
			}
		})
		if lookupErr != nil {
			return nil, fmt.Errorf("E10 lookups at size %d: %w", size, lookupErr)
		}

		// Expire half the directory and reap.
		for i := 0; i < size/2; i++ {
			dir.Directory().Register(asd.Entry{ //nolint:errcheck
				Name: fmt.Sprintf("svc%05d", i), Lease: time.Nanosecond,
			})
		}
		time.Sleep(2 * time.Millisecond)
		reaped := len(dir.Directory().Reap())

		t.AddRow(size, regUs,
			float64(byName)/float64(time.Microsecond),
			float64(byClass)/float64(time.Microsecond),
			reaped)
		pool.Close()
		dir.Stop()
	}
	return t, nil
}

// RunE4 measures Fig 8: time from command execution to delivery at
// every notified service, versus the listener count. Notifications are
// best-effort (§2.5): a source sheds the deliveries it cannot start
// while 64 are in flight, which a round overlapping the previous one's
// stragglers meets at 64 listeners. So each round waits for its
// deliveries only until a deadline, the table reports the share that
// arrived, and only rounds where every listener heard the command are
// timed.
func RunE4() (*Table, error) {
	const (
		rounds    = 30
		roundWait = 250 * time.Millisecond
	)
	t := &Table{
		ID:      "E4",
		Title:   "notification dispatch latency vs listener count",
		Source:  "Fig 8, §2.5",
		Columns: []string{"listeners", "all-delivered ms (mean)", "all-delivered ms (p95)", "delivered share"},
	}
	run := func(listeners int) error {
		source := daemon.New(daemon.Config{Name: "e4src"})
		source.Handle(cmdlang.CommandSpec{Name: "tick"},
			func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) { return nil, nil })
		if err := source.Start(); err != nil {
			return err
		}
		defer source.Stop()
		pool := daemon.NewPool(nil)
		defer pool.Close()

		var delivered atomic.Int64
		for i := 0; i < listeners; i++ {
			sink := daemon.New(daemon.Config{Name: fmt.Sprintf("e4sink%d", i)})
			sink.Handle(cmdlang.CommandSpec{Name: "onTick", AllowExtra: true},
				func(_ *daemon.Ctx, _ *cmdlang.CmdLine) (*cmdlang.CmdLine, error) {
					delivered.Add(1)
					return nil, nil
				})
			if err := sink.Start(); err != nil {
				return err
			}
			defer sink.Stop()
			if err := daemon.Subscribe(pool, source.Addr(), "tick", sink.Name(), sink.Addr(), "onTick"); err != nil {
				return err
			}
		}

		var times []time.Duration
		var arrived int64
		for r := 0; r < rounds; r++ {
			base := delivered.Load()
			start := time.Now()
			if _, err := pool.Call(source.Addr(), cmdlang.New("tick")); err != nil {
				return err
			}
			for delivered.Load()-base < int64(listeners) && time.Since(start) < roundWait {
				time.Sleep(50 * time.Microsecond)
			}
			n := min(delivered.Load()-base, int64(listeners))
			if n == 0 {
				return fmt.Errorf("E4: round %d delivered none of %d notifications in %v", r, listeners, roundWait)
			}
			if n == int64(listeners) {
				times = append(times, time.Since(start))
			}
			arrived += n
		}
		mean, p95 := "-", "-"
		if len(times) > 0 {
			var sum time.Duration
			for _, d := range times {
				sum += d
			}
			mean = fmt.Sprintf("%.2f", float64(sum/time.Duration(len(times)))/float64(time.Millisecond))
			p95 = fmt.Sprintf("%.2f", float64(percentile(times, 95))/float64(time.Millisecond))
		}
		t.AddRow(listeners, mean, p95, float64(arrived)/float64(rounds*listeners))
		return nil
	}
	for _, listeners := range []int{1, 4, 16, 64} {
		if err := run(listeners); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunE5 measures the Fig 9 startup sequence: room database, ASD
// registration, net-logger record.
func RunE5() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "daemon startup sequence (roomdb→ASD→netlog) latency",
		Source:  "Fig 9, §2.6",
		Columns: []string{"transport", "steps", "startup ms (mean)", "startup ms (p95)"},
	}
	run := func(label string, transportFor func(string) (*wire.Transport, error)) error {
		tp := func(name string) *wire.Transport {
			if transportFor == nil {
				return nil
			}
			tr, _ := transportFor(name)
			return tr
		}
		dir := asd.New(asd.Config{Daemon: daemon.Config{Transport: tp("asd")}})
		if err := dir.Start(); err != nil {
			return err
		}
		defer dir.Stop()
		rooms := roomdb.New(daemon.Config{Transport: tp("roomdb"), ASDAddr: dir.Addr()}, nil)
		if err := rooms.Start(); err != nil {
			return err
		}
		defer rooms.Stop()
		logger := netlog.New(daemon.Config{Transport: tp("netlog"), ASDAddr: dir.Addr()}, 0)
		if err := logger.Start(); err != nil {
			return err
		}
		defer logger.Stop()

		const trials = 40
		var times []time.Duration
		for i := 0; i < trials; i++ {
			d := daemon.New(daemon.Config{
				Name:       fmt.Sprintf("e5svc%d", i),
				Room:       "hawk",
				Transport:  tp(fmt.Sprintf("e5svc%d", i)),
				ASDAddr:    dir.Addr(),
				RoomDBAddr: rooms.Addr(),
				NetLogAddr: logger.Addr(),
			})
			start := time.Now()
			if err := d.Start(); err != nil {
				return err
			}
			times = append(times, time.Since(start))
			d.Stop()
		}
		var sum time.Duration
		for _, d := range times {
			sum += d
		}
		t.AddRow(label, "roomdb+asd+netlog",
			float64(sum/time.Duration(trials))/float64(time.Millisecond),
			float64(percentile(times, 95))/float64(time.Millisecond))
		return nil
	}
	if err := run("plaintext", nil); err != nil {
		return nil, err
	}
	ca, err := wire.NewCA("e5")
	if err != nil {
		return nil, err
	}
	if err := run("TLS", func(name string) (*wire.Transport, error) {
		return wire.NewTransport(ca, name)
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// RunE11 measures the §9 scalability goal: central services under
// growing concurrent client counts.
func RunE11() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "central-service throughput vs concurrent clients",
		Source:  "§9 (\"hundreds and even thousands of users\")",
		Columns: []string{"clients", "ASD lookups/s", "AUD getUser/s", "WSS open/s"},
	}

	dir := asd.New(asd.Config{})
	if err := dir.Start(); err != nil {
		return nil, err
	}
	defer dir.Stop()
	adminPool := daemon.NewPool(nil)
	defer adminPool.Close()
	if _, err := adminPool.Call(dir.Addr(), cmdlang.New(daemon.CmdRegister).
		SetWord("name", "target").SetWord("host", "h").SetInt("port", 1).
		SetString("addr", "h:1").SetInt("lease", 600000)); err != nil {
		return nil, err
	}

	aud := userdb.New(daemon.Config{}, nil)
	if err := aud.Start(); err != nil {
		return nil, err
	}
	defer aud.Stop()
	aud.DB().Add(userdb.User{Username: "john_doe", FullName: "John Doe"}) //nolint:errcheck

	vnc := workspace.NewVNCServer(daemon.Config{})
	if err := vnc.Start(); err != nil {
		return nil, err
	}
	defer vnc.Stop()
	wss := workspace.NewWSS(workspace.WSSConfig{VNCAddrs: []string{vnc.Addr()}})
	if err := wss.Start(); err != nil {
		return nil, err
	}
	defer wss.Stop()
	if _, err := wss.Create("john_doe", ""); err != nil {
		return nil, err
	}

	measure := func(clients int, addr string, cmd func() *cmdlang.CmdLine) (float64, error) {
		const perClient = 100
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := wire.Dial(nil, addr)
				if err != nil {
					errCh <- err
					return
				}
				defer func() { _ = cl.Close() }()
				for i := 0; i < perClient; i++ {
					if _, err := cl.Call(cmd()); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return 0, err
		default:
		}
		total := float64(clients * perClient)
		return total / time.Since(start).Seconds(), nil
	}

	for _, clients := range []int{1, 10, 50, 200} {
		asdRate, err := measure(clients, dir.Addr(), func() *cmdlang.CmdLine {
			return cmdlang.New(daemon.CmdLookup).SetWord("name", "target")
		})
		if err != nil {
			return nil, err
		}
		audRate, err := measure(clients, aud.Addr(), func() *cmdlang.CmdLine {
			return cmdlang.New("getUser").SetWord("username", "john_doe")
		})
		if err != nil {
			return nil, err
		}
		wssRate, err := measure(clients, wss.Addr(), func() *cmdlang.CmdLine {
			return cmdlang.New("openWorkspace").SetWord("user", "john_doe")
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(clients, asdRate, audRate, wssRate)
	}
	t.Notes = append(t.Notes, "each client performs 100 sequential calls on its own connection")
	return t, nil
}

// RunE12 measures the §3.1 security tax: TLS vs plaintext transport.
func RunE12() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "TLS vs plaintext command transport",
		Source:  "§3.1",
		Columns: []string{"transport", "dial+handshake ms", "ping µs/call"},
	}
	run := func(label string, serverT, clientT *wire.Transport) error {
		d := daemon.New(daemon.Config{Name: "e12", Transport: serverT})
		if err := d.Start(); err != nil {
			return err
		}
		defer d.Stop()

		const dials = 20
		dialStart := time.Now()
		for i := 0; i < dials; i++ {
			c, err := wire.Dial(clientT, d.Addr())
			if err != nil {
				return err
			}
			if _, err := c.Call(cmdlang.New(daemon.CmdPing)); err != nil {
				return err
			}
			_ = c.Close()
		}
		dialMs := float64(time.Since(dialStart)/dials) / float64(time.Millisecond)

		c, err := wire.Dial(clientT, d.Addr())
		if err != nil {
			return err
		}
		defer func() { _ = c.Close() }()
		var pingErr error
		lat := timeOp(3000, func() {
			if _, err := c.Call(cmdlang.New(daemon.CmdPing)); err != nil && pingErr == nil {
				pingErr = err
			}
		})
		if pingErr != nil {
			return pingErr
		}
		t.AddRow(label, dialMs, float64(lat)/float64(time.Microsecond))
		return nil
	}
	if err := run("plaintext", nil, nil); err != nil {
		return nil, err
	}
	ca, err := wire.NewCA("e12")
	if err != nil {
		return nil, err
	}
	serverT, err := wire.NewTransport(ca, "e12")
	if err != nil {
		return nil, err
	}
	clientT, err := wire.NewTransport(ca, "client")
	if err != nil {
		return nil, err
	}
	if err := run("TLS 1.3 mutual", serverT, clientT); err != nil {
		return nil, err
	}
	return t, nil
}
