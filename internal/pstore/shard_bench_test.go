package pstore

// Sharding scaling benchmark, part of `make bench-pstore`. The
// placement subsystem claims horizontal scaling: a keyed zipfian
// write storm against four replica groups must deliver a multiple of
// the single-group throughput, and the sharded read path (partition
// hash + epoch-stamped routing through the cached map) must not tax
// per-operation get latency measurably.
//
// The machine running this may have one CPU, so raw throughput would
// measure scheduler contention, not placement. Instead every store
// node's admission controller is pinned to a fixed token-bucket rate
// — the per-node capacity ceiling is then explicit, and throughput
// scaling measures exactly what sharding provides: more groups, more
// aggregate admitted capacity, if and only if routing actually
// spreads the key space.
//
// Results merge into BENCH_pstore.json next to the quorum numbers.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/asd"
	"ace/internal/daemon"
	"ace/internal/flow"
	"ace/internal/pstore/placement"
	"ace/internal/workload"
)

const (
	// benchNodeRate pins each node's data-plane admissions per second.
	benchNodeRate = 250
	// benchStormDuration is the measured window per deployment.
	benchStormDuration = 2 * time.Second
	benchStormWorkers  = 12
	// benchKeys is the zipfian key-space size; benchTheta its skew.
	benchKeys  = 16384
	benchTheta = 0.9
)

// benchDeployment is one sharded deployment: groups of three
// in-memory nodes (rate-pinned when rate > 0), an ASD holding the
// placement map, and the node handles for cleanup.
type benchDeployment struct {
	groups []placement.Group
	asd    *asd.Service
}

func startBenchDeployment(t testing.TB, groupCount int, rate float64) *benchDeployment {
	t.Helper()
	d := &benchDeployment{}
	for g := 1; g <= groupCount; g++ {
		var addrs []string
		var nodes []*Node
		for i := 1; i <= 3; i++ {
			cfg := Config{
				Daemon: daemon.Config{Name: fmt.Sprintf("bench_g%dn%d", g, i)},
				Group:  fmt.Sprintf("g%d", g),
			}
			if rate > 0 {
				// Tight burst: the bucket must meter, not front-load
				// the measured window.
				cfg.Daemon.Flow = &flow.Config{Rate: rate, Burst: 16}
			}
			n, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(n.Stop)
			nodes = append(nodes, n)
			addrs = append(addrs, n.Addr())
		}
		for i, n := range nodes {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			n.SetPeers(peers)
		}
		d.groups = append(d.groups, placement.Group{Name: fmt.Sprintf("g%d", g), Replicas: addrs})
	}
	d.asd = asd.New(asd.Config{ReapInterval: time.Hour})
	if err := d.asd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.asd.Stop)
	return d
}

func (d *benchDeployment) sharded(t testing.TB) *Sharded {
	t.Helper()
	pool := daemon.NewPool(nil)
	t.Cleanup(pool.Close)
	co := NewCoordinator(pool, d.asd.Addr())
	if _, err := co.Bootstrap(context.Background(), 7, 32, 64, d.groups); err != nil {
		t.Fatal(err)
	}
	sc := NewSharded(pool, placement.NewCache(pool, d.asd.Addr()))
	t.Cleanup(sc.Close)
	return sc
}

// zipfianPutStorm hammers sc with keyed zipfian puts from concurrent
// workers for the given duration and returns acked puts per second.
// Rejected puts (the admission controller shedding past the pinned
// rate) are the expected steady state of an offered-load > capacity
// storm and are simply not counted.
func zipfianPutStorm(sc *Sharded, workers int, d time.Duration) float64 {
	var ackedOps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewZipfian(int64(100+w), benchKeys, benchTheta)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := workload.Path("/bench/shard", gen.Next())
				if _, err := sc.Put(path, []byte(fmt.Sprintf("w%d-%d", w, i))); err == nil {
					ackedOps.Add(1)
				}
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return float64(ackedOps.Load()) / time.Since(start).Seconds()
}

// timeZipfianGets runs n serial keyed gets and returns the elapsed
// wall time.
func timeZipfianGets(t testing.TB, get func(path string) error, gen *workload.Zipfian, n int) time.Duration {
	t.Helper()
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := get(workload.Path("/bench/shard", gen.Next())); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

// compareGetLatency measures baseline vs candidate get latency as the
// median of per-batch latency ratios. The batches interleave tightly
// (baseline, candidate, baseline, ...), so machine-wide drift — GC,
// another process, CPU frequency — lands on both sides of each pair
// and cancels in the ratio; the median then discards batches where a
// pause hit only one side. A sequential A-then-B measurement cannot
// tell a 10% code-path tax from 10 seconds of background noise.
func compareGetLatency(t testing.TB, baseline, candidate func(path string) error, keys int) (baseNs, candNs, ratio float64) {
	t.Helper()
	const batches, perBatch = 40, 100
	genB := workload.NewZipfian(9, keys, benchTheta)
	genC := workload.NewZipfian(9, keys, benchTheta)
	// Warm both paths (connections, placement cache) outside the
	// measured window, and start from a collected heap so the first
	// batches don't absorb garbage from the setup phase.
	timeZipfianGets(t, baseline, genB, perBatch)
	timeZipfianGets(t, candidate, genC, perBatch)
	runtime.GC()
	ratios := make([]float64, 0, batches)
	var baseTotal, candTotal time.Duration
	for i := 0; i < batches; i++ {
		b := timeZipfianGets(t, baseline, genB, perBatch)
		c := timeZipfianGets(t, candidate, genC, perBatch)
		baseTotal += b
		candTotal += c
		ratios = append(ratios, float64(c)/float64(b))
	}
	sort.Float64s(ratios)
	baseNs = float64(baseTotal.Nanoseconds()) / float64(batches*perBatch)
	candNs = float64(candTotal.Nanoseconds()) / float64(batches*perBatch)
	return baseNs, candNs, ratios[batches/2]
}

// TestBenchPstoreSharding gates the sharding scaling claims. Skipped
// unless ACE_BENCH_PSTORE=1 (i.e. under `make bench-pstore`).
func TestBenchPstoreSharding(t *testing.T) {
	if os.Getenv("ACE_BENCH_PSTORE") == "" {
		t.Skip("set ACE_BENCH_PSTORE=1 (or run `make bench-pstore`) to measure sharding scaling")
	}

	// Throughput scaling: rate-pinned nodes, 1 group vs 4 groups,
	// identical zipfian storms.
	put1 := zipfianPutStorm(startBenchDeployment(t, 1, benchNodeRate).sharded(t), benchStormWorkers, benchStormDuration)
	put4 := zipfianPutStorm(startBenchDeployment(t, 4, benchNodeRate).sharded(t), benchStormWorkers, benchStormDuration)
	speedup := put4 / put1
	t.Logf("zipfian put throughput: 1 group %8.1f ops/s   4 groups %8.1f ops/s   speedup %.2fx", put1, put4, speedup)
	if speedup < 2.5 {
		t.Errorf("4-group put throughput %.1f ops/s is only %.2fx the 1-group baseline %.1f ops/s (want ≥2.5x) — placement is not spreading load", put4, speedup, put1)
	}

	// Read-path overhead: unpinned nodes (latency, not capacity, is
	// the question), small key space so population stays cheap. The
	// baseline is a plain unstamped quorum client against one group;
	// the measured path is the sharded router over four groups.
	const latKeys = 1024
	lat1dep := startBenchDeployment(t, 1, 0)
	pool1 := daemon.NewPool(nil)
	t.Cleanup(pool1.Close)
	plain := NewClient(pool1, lat1dep.groups[0].Replicas)
	t.Cleanup(plain.Close)
	lat4 := startBenchDeployment(t, 4, 0).sharded(t)
	for i := 0; i < latKeys; i++ {
		if _, err := plain.Put(workload.Path("/bench/shard", i), []byte("lat")); err != nil {
			t.Fatal(err)
		}
		if _, err := lat4.Put(workload.Path("/bench/shard", i), []byte("lat")); err != nil {
			t.Fatal(err)
		}
	}
	plainGet := func(p string) error {
		_, _, ok, err := plain.Get(p)
		if err == nil && !ok {
			return fmt.Errorf("missing %s", p)
		}
		return err
	}
	shardedGet := func(p string) error {
		_, _, ok, err := lat4.Get(p)
		if err == nil && !ok {
			return fmt.Errorf("missing %s", p)
		}
		return err
	}
	get1, get4, overhead := compareGetLatency(t, plainGet, shardedGet, latKeys)
	t.Logf("zipfian get latency: single-group %10.0f ns/op   sharded(4) %10.0f ns/op   ratio %.3f", get1, get4, overhead)
	if overhead > 1.10 {
		t.Errorf("sharded get %.0f ns/op is %.1f%% over the single-group baseline %.0f ns/op (budget 10%%) — routing is taxing the read path", get4, (overhead-1)*100, get1)
	}

	// Merge into BENCH_pstore.json alongside the quorum scenarios.
	out := os.Getenv("ACE_BENCH_PSTORE_OUT")
	if out == "" {
		out = "BENCH_pstore.json"
	}
	payload := map[string]any{}
	if data, err := os.ReadFile(out); err == nil {
		_ = json.Unmarshal(data, &payload)
	}
	payload["sharding"] = map[string]any{
		"node_rate_ops_per_sec":  benchNodeRate,
		"zipfian_theta":          benchTheta,
		"zipfian_keys":           benchKeys,
		"put_1_group_ops_per_s":  put1,
		"put_4_groups_ops_per_s": put4,
		"put_speedup":            speedup,
		"get_single_ns_per_op":   get1,
		"get_sharded_ns_per_op":  get4,
		"get_overhead_ratio":     overhead,
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
