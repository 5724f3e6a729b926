//go:build !race

// The race runtime allocates on its own account, so these budgets hold
// only in a plain build.

package pstore

import (
	"context"
	"testing"
	"time"
)

// The allocation budget of one quorum operation against three durable
// nodes, counted over the whole process: client, nodes and their write
// ahead logs. The budgets leave a little room for background work
// (read repairs, a straggler's drain) landing in the count. What each
// allocation is for: DESIGN.md, "What a store operation allocates".
const (
	putAllocBudget     = 36
	getAllocBudget     = 24
	boundedAllocBudget = 10
)

func TestQuorumOpAllocationBudget(t *testing.T) {
	ctx := context.Background()
	value := make([]byte, 256)
	client := startCacheCluster(t, "/budget/op", value)
	put := testing.AllocsPerRun(500, func() {
		if _, err := client.PutContext(ctx, "/budget/op", value); err != nil {
			t.Fatal(err)
		}
	})
	get := testing.AllocsPerRun(500, func() {
		if _, _, ok, err := client.GetContext(ctx, "/budget/op"); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
	})
	// The quorum get granted a lease that outlives the runs: every
	// bounded read is a one-leg hit.
	bounded := testing.AllocsPerRun(500, func() {
		if _, _, ok, err := client.GetBoundedContext(ctx, "/budget/op", time.Hour); err != nil || !ok {
			t.Fatalf("bounded get: ok=%v err=%v", ok, err)
		}
	})
	t.Logf("quorum put: %.0f allocations, quorum get: %.0f, bounded hit: %.0f", put, get, bounded)
	if put > putAllocBudget {
		t.Errorf("quorum put made %.0f allocations, budget %d", put, putAllocBudget)
	}
	if get > getAllocBudget {
		t.Errorf("quorum get made %.0f allocations, budget %d", get, getAllocBudget)
	}
	if bounded > boundedAllocBudget {
		t.Errorf("bounded hit made %.0f allocations, budget %d", bounded, boundedAllocBudget)
	}
	if n := client.pool.Telemetry().Snapshot().Counter(MetricBoundedFallbacks); n > 0 {
		t.Errorf("%d bounded reads fell back to a quorum read", n)
	}
}
