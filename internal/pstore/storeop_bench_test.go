package pstore

// What one store operation costs the process: a single client's quorum
// PUT and GET against three durable nodes in this process, whose
// filesystem answers a flush at once, as the benchmark's store
// workloads run them. `make profile-store` runs BenchmarkStoreOp under
// the CPU and allocation profilers; the allocation budget tests pin its
// counts. On this warm, healthy cluster every leg is a call started in
// place: one that ran on the pool's blocking path fails the benchmark,
// so that `make bench-once` catches a return to goroutine legs.

import (
	"context"
	"fmt"
	"testing"

	"ace/internal/daemon"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
)

// cacheFS is the real filesystem whose flushes return at once: the log
// is written through the same calls, and a commit costs no device time.
type cacheFS struct{ storage.FS }

func (c cacheFS) Create(name string) (storage.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return cacheFile{f}, nil
}

func (c cacheFS) OpenAppend(name string) (storage.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return cacheFile{f}, nil
}

func (cacheFS) SyncDir(string) error { return nil }

type cacheFile struct{ storage.File }

func (cacheFile) Sync() error { return nil }

// startCacheCluster starts three durable nodes on cacheFS and returns a
// client of them, warmed up with one write and one read of path.
func startCacheCluster(tb testing.TB, path string, value []byte) *Client {
	tb.Helper()
	dir := tb.TempDir()
	cluster := &Cluster{}
	tb.Cleanup(cluster.StopAll)
	for i := 1; i <= 3; i++ {
		n, err := NewNode(Config{
			Daemon:  daemon.Config{Name: fmt.Sprintf("pstore%d", i)},
			Dir:     dir,
			Storage: storage.Options{FS: cacheFS{storage.OS}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		cluster.Nodes = append(cluster.Nodes, n)
		if err := n.Start(); err != nil {
			tb.Fatal(err)
		}
	}
	pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry(), Seed: 1})
	tb.Cleanup(pool.Close)
	client := NewClient(pool, cluster.Addrs())
	tb.Cleanup(client.Close)
	if _, err := client.Put(path, value); err != nil {
		tb.Fatal(err)
	}
	if _, _, ok, err := client.Get(path); err != nil || !ok {
		tb.Fatalf("warm-up get: ok=%v err=%v", ok, err)
	}
	return client
}

func BenchmarkStoreOp(b *testing.B) {
	ctx := context.Background()
	value := make([]byte, 256)
	client := startCacheCluster(b, "/bench/op", value)
	blocking := func() int64 {
		return client.pool.Telemetry().Snapshot().Counter(MetricFanoutBlockingLegs)
	}
	before := blocking()
	b.Cleanup(func() {
		if n := blocking() - before; n > 0 {
			b.Errorf("%d legs ran on the blocking path on a warm, healthy cluster", n)
		}
	})
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.PutContext(ctx, "/bench/op", value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok, err := client.GetContext(ctx, "/bench/op"); err != nil || !ok {
				b.Fatalf("get: ok=%v err=%v", ok, err)
			}
		}
	})
}
