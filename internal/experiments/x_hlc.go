package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
)

func init() {
	register("X8", "read spectrum: quorum vs bounded vs any GET latency on a healthy cluster", RunX8)
}

// RunX8 measures the pstore read spectrum on a healthy three-replica
// cluster: the same keyed GET workload under quorum (all replicas, a
// majority decides), bounded staleness (single replica when a
// freshness lease proves the bound), and any (first replica, no
// bound). The bounded column is the tentpole claim — with live
// leases it collapses a three-way fan-out into one replica RTT — and
// the violations column is the safety claim: on a healthy cluster no
// lease holder may ever answer below its quorum-proven version.
func RunX8() (*Table, error) {
	t := &Table{
		ID:      "X8",
		Title:   "consistency spectrum: GET latency by read mode (3 replicas)",
		Source:  "extension: hybrid logical clocks and bounded-staleness reads",
		Columns: []string{"mode", "p50 us", "p95 us", "bounded hits", "fallbacks", "violations"},
	}

	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		return nil, err
	}
	defer cluster.StopAll()
	reg := telemetry.NewRegistry()
	pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: reg})
	defer pool.Close()
	client := pstore.NewClient(pool, cluster.Addrs())
	defer client.Close()

	const (
		keys   = 64
		reads  = 600
		warmup = 50
		bound  = 2 * time.Second
	)
	key := func(i int) string { return fmt.Sprintf("/x8/spectrum/%03d", i%keys) }
	for i := 0; i < keys; i++ {
		if _, err := client.Put(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			return nil, err
		}
	}

	modes := []pstore.ReadMode{pstore.ReadQuorum(), pstore.ReadBounded(bound), pstore.ReadAny()}
	for _, mode := range modes {
		before := reg.Snapshot()
		lat := make([]time.Duration, 0, reads)
		for i := 0; i < warmup+reads; i++ {
			start := time.Now()
			_, _, ok, err := client.GetModeContext(context.Background(), key(i), mode)
			if err != nil || !ok {
				return nil, fmt.Errorf("x8: %v read %d: ok=%v err=%v", mode, i, ok, err)
			}
			if i >= warmup {
				lat = append(lat, time.Since(start))
			}
		}
		after := reg.Snapshot()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50 := lat[len(lat)/2]
		p95 := lat[len(lat)*95/100]
		t.AddRow(mode.String(),
			p50.Microseconds(), p95.Microseconds(),
			after.Counter(pstore.MetricBoundedHits)-before.Counter(pstore.MetricBoundedHits),
			after.Counter(pstore.MetricBoundedFallbacks)-before.Counter(pstore.MetricBoundedFallbacks),
			after.Counter(staleness.MetricViolations)-before.Counter(staleness.MetricViolations))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d reads per mode over %d keys after %d warmup; bounded Δ=%v", reads, keys, warmup, bound))
	return t, nil
}
