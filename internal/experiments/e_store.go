package experiments

import (
	"fmt"
	"sync"
	"time"

	"ace/internal/apps"
	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
)

func init() {
	register("E10", "persistent store: replication, availability, recovery", RunE10)
	register("E13", "restart/robust application recovery time", RunE13)
}

// RunE10 reproduces Fig 17's claims: redundant storage keeps data
// available through one and two server failures, removes the
// single-server read bottleneck, and resynchronizes recovered nodes.
func RunE10() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "persistent store: 1 vs 3 replicas",
		Source:  "Fig 17, §6",
		Columns: []string{"metric", "1 replica", "3 replicas"},
	}

	type result struct {
		putUs, getUs, getAnyUs float64
		parallelReadRate       float64
		maxNodeShare           float64 // fraction of reads served by the busiest node
	}
	run := func(n int) (result, error) {
		var res result
		cluster, err := pstore.StartCluster(n, "", 0)
		if err != nil {
			return res, err
		}
		defer cluster.StopAll()
		pool := daemon.NewPool(nil)
		defer pool.Close()
		client := pstore.NewClient(pool, cluster.Addrs())

		const items = 200
		putStart := time.Now()
		for i := 0; i < items; i++ {
			if _, err := client.Put(fmt.Sprintf("/e10/%03d", i), []byte("state-blob")); err != nil {
				return res, err
			}
		}
		res.putUs = float64(time.Since(putStart).Microseconds()) / items

		var getErr error
		res.getUs = float64(timeOp(500, func() {
			if _, _, _, err := client.Get("/e10/100"); err != nil && getErr == nil {
				getErr = err
			}
		})) / float64(time.Microsecond)
		res.getAnyUs = float64(timeOp(500, func() {
			if _, _, _, err := client.GetAny("/e10/100"); err != nil && getErr == nil {
				getErr = err
			}
		})) / float64(time.Microsecond)
		if getErr != nil {
			return res, getErr
		}

		// Bottleneck removal: many concurrent readers sharing the client,
		// whose GetAny rotates over the replicas.
		const readers = 32
		const perReader = 300
		before := make([]int64, len(cluster.Nodes))
		for i, node := range cluster.Nodes {
			before[i] = node.Stats().CommandsOK
		}
		var wg sync.WaitGroup
		readErrs := make(chan error, readers)
		start := time.Now()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perReader; i++ {
					if _, _, _, err := client.GetAny(fmt.Sprintf("/e10/%03d", i%items)); err != nil {
						readErrs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-readErrs:
			return res, err
		default:
		}
		res.parallelReadRate = float64(readers*perReader) / time.Since(start).Seconds()
		var total, max int64
		for i, node := range cluster.Nodes {
			served := node.Stats().CommandsOK - before[i]
			total += served
			if served > max {
				max = served
			}
		}
		if total > 0 {
			res.maxNodeShare = float64(max) / float64(total)
		}
		return res, nil
	}

	r1, err := run(1)
	if err != nil {
		return nil, err
	}
	r3, err := run(3)
	if err != nil {
		return nil, err
	}
	t.AddRow("put µs/op (quorum)", r1.putUs, r3.putUs)
	t.AddRow("get µs/op (quorum)", r1.getUs, r3.getUs)
	t.AddRow("get µs/op (any replica)", r1.getAnyUs, r3.getAnyUs)
	t.AddRow("32-reader throughput ops/s", r1.parallelReadRate, r3.parallelReadRate)
	t.AddRow("busiest node's share of reads",
		fmt.Sprintf("%.0f%%", 100*r1.maxNodeShare),
		fmt.Sprintf("%.0f%%", 100*r3.maxNodeShare))

	// Availability under crashes (3-replica cluster).
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		return nil, err
	}
	defer cluster.StopAll()
	pool := daemon.NewPool(nil)
	defer pool.Close()
	client := pstore.NewClient(pool, cluster.Addrs())
	if _, err := client.Put("/e10/avail", []byte("x")); err != nil {
		return nil, err
	}
	// Seed a realistic corpus so the recovery measurement below has
	// something to pull.
	const corpus = 300
	for i := 0; i < corpus; i++ {
		if _, err := client.Put(fmt.Sprintf("/e10/corpus/%03d", i), []byte("workspace-state-blob")); err != nil {
			return nil, err
		}
	}
	avail := func() (string, string) {
		_, _, qok, qerr := client.Get("/e10/avail")
		_, _, aok, aerr := client.GetAny("/e10/avail")
		q := "yes"
		if qerr != nil || !qok {
			q = "no"
		}
		a := "yes"
		if aerr != nil || !aok {
			a = "no"
		}
		return q, a
	}
	q0, a0 := avail()
	cluster.Nodes[0].Stop()
	q1, a1 := avail()
	cluster.Nodes[1].Stop()
	q2, a2 := avail()
	t.AddRow("quorum read available (0/1/2 crashes)", "-", fmt.Sprintf("%s/%s/%s", q0, q1, q2))
	t.AddRow("any-replica read available (0/1/2 crashes)", "-", fmt.Sprintf("%s/%s/%s", a0, a1, a2))

	// Recovery: a wiped replacement node resynchronizes via
	// anti-entropy from the surviving peer.
	fresh, err := pstore.NewNode(pstore.Config{Daemon: daemon.Config{Name: "e10fresh"}})
	if err != nil {
		return nil, err
	}
	if err := fresh.Start(); err != nil {
		return nil, err
	}
	defer fresh.Stop()
	fresh.SetPeers([]string{cluster.Nodes[2].Addr()})
	syncStart := time.Now()
	pulled := fresh.SyncAll()
	syncDur := time.Since(syncStart)
	t.AddRow("anti-entropy recovery", "-",
		fmt.Sprintf("%d items in %s (%.0f items/s)", pulled, syncDur.Round(time.Millisecond), float64(pulled)/syncDur.Seconds()))

	t.Notes = append(t.Notes,
		"expected shape: quorum ops cost more with 3 replicas; the read load spreads to ~1/3 per node (the bottleneck-removal claim) and reads survive 2 crashes",
		"on a single-core runner aggregate wall-clock throughput is CPU-bound; the per-node share row shows the bottleneck removal directly")
	return t, nil
}

// RunE13 measures §5.2/§5.3: how long a restart application is down
// before the watcher relaunches it, and how long a robust application
// takes to fail over with its state intact.
func RunE13() (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "application recovery times",
		Source:  "§5.2, §5.3, §6",
		Columns: []string{"application class", "trials", "recovery ms (mean)", "recovery ms (p95)", "state preserved"},
	}

	// Restart application: downtime from crash to re-resolvable.
	dir := asd.New(asd.Config{ReapInterval: 10 * time.Millisecond})
	if err := dir.Start(); err != nil {
		return nil, err
	}
	defer dir.Stop()
	makeApp := func() *daemon.Daemon {
		return daemon.New(daemon.Config{Name: "e13app", ASDAddr: dir.Addr(), LeaseTTL: 50 * time.Millisecond})
	}
	watcher := apps.NewWatcher(apps.WatcherConfig{ASDAddr: dir.Addr(), Interval: 10 * time.Millisecond})
	app := makeApp()
	if err := app.Start(); err != nil {
		return nil, err
	}
	watcher.Watch(apps.Spec{
		Name:  "e13app",
		Class: apps.Restart,
		Factory: func() (apps.Startable, error) {
			a := makeApp()
			return a, nil
		},
	}, app)
	if err := watcher.Start(); err != nil {
		return nil, err
	}
	defer watcher.Stop()

	pool := daemon.NewPool(nil)
	defer pool.Close()
	const trials = 10
	var restartTimes []time.Duration
	app.Stop()
	for i := 0; i < trials; i++ {
		start := time.Now()
		for {
			if _, err := asd.Resolve(pool, dir.Addr(), asd.Query{Name: "e13app"}); err == nil {
				break
			}
			if time.Since(start) > 10*time.Second {
				return nil, fmt.Errorf("E13: restart app never recovered")
			}
			time.Sleep(time.Millisecond)
		}
		restartTimes = append(restartTimes, time.Since(start))
		// Crash it again for the next trial.
		if _, err := pool.Call(dir.Addr(), cmdlang.New(daemon.CmdUnregister).SetWord("name", "e13app")); err != nil {
			return nil, fmt.Errorf("E13: deregistering e13app for trial %d: %w", i, err)
		}
	}
	t.AddRow("restart (watcher relaunch)", trials,
		meanMs(restartTimes), float64(percentile(restartTimes, 95))/float64(time.Millisecond), "n/a")

	// Robust application: failover with state restored from the
	// persistent store.
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		return nil, err
	}
	defer cluster.StopAll()
	store := pstore.NewClient(pool, cluster.Addrs())
	ckpt := &apps.Checkpointer{Client: store, Path: "/e13/counter"}

	var failoverTimes []time.Duration
	allPreserved := true
	counter := apps.NewRobustCounter(daemon.Config{Name: "e13counter"}, ckpt)
	if err := counter.Start(); err != nil {
		return nil, err
	}
	expected := int64(0)
	for i := 0; i < trials; i++ {
		for j := 0; j < 5; j++ {
			if _, err := pool.Call(counter.Addr(), cmdlang.New("increment")); err != nil {
				return nil, err
			}
			expected++
		}
		counter.Stop() // crash
		start := time.Now()
		counter = apps.NewRobustCounter(daemon.Config{Name: "e13counter"}, ckpt)
		if err := counter.Start(); err != nil {
			return nil, err
		}
		failoverTimes = append(failoverTimes, time.Since(start))
		if counter.Value() != expected {
			allPreserved = false
		}
	}
	counter.Stop()
	preserved := "yes"
	if !allPreserved {
		preserved = "NO"
	}
	t.AddRow("robust (pstore failover)", trials,
		meanMs(failoverTimes), float64(percentile(failoverTimes, 95))/float64(time.Millisecond), preserved)

	t.Notes = append(t.Notes,
		"restart recovery is dominated by the watcher poll interval (10 ms here)",
		"robust recovery includes the quorum state read at startup")
	return t, nil
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum/time.Duration(len(ds))) / float64(time.Millisecond)
}
