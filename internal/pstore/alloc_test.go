//go:build !race

// The race runtime allocates on its own account, so these budgets hold
// only in a plain build.

package pstore

import (
	"context"
	"testing"
)

// The allocation budget of one quorum operation against three durable
// nodes, counted over the whole process: client, nodes and their write
// ahead logs. The budgets leave a little room for background work
// (read repairs, a straggler's drain) landing in the count. What each
// allocation is for: DESIGN.md, "What a store operation allocates".
const (
	putAllocBudget = 40
	getAllocBudget = 24
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
	t.Logf("quorum put: %.0f allocations, quorum get: %.0f", put, get)
	if put > putAllocBudget {
		t.Errorf("quorum put made %.0f allocations, budget %d", put, putAllocBudget)
	}
	if get > getAllocBudget {
		t.Errorf("quorum get made %.0f allocations, budget %d", get, getAllocBudget)
	}
}
