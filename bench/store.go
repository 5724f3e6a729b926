package main

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore"
	"ace/internal/pstore/staleness"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
	"ace/internal/workload"
)

const (
	storeGet = iota
	storePut
)

const (
	valueLen     = 256
	zipfTheta    = 0.9
	boundedDelta = 2 * time.Second
	keyPrefix    = "/bench/kv"
	// legPrefix holds the scratch paths the probes and the replay write
	// to, away from the keys the workers check.
	legPrefix = "/benchleg"
	replicas  = 3
	// loaderClient marks preloaded values, which no worker wrote.
	loaderClient = 0xFFFFFFFF
)

var storeClasses = []string{"get", "put"}

var storeMixedSpec = workloadSpec{
	name:    "store_mixed",
	classes: storeClasses,
	read:    []int{storeGet},
	write:   []int{storePut},
	setup: func(cfg runConfig) (environment, error) {
		return setupStore(cfg, 0.5, false)
	},
}

var storeReadSpec = workloadSpec{
	name:    "store_read",
	classes: storeClasses,
	read:    []int{storeGet},
	write:   []int{storePut},
	setup: func(cfg runConfig) (environment, error) {
		return setupStore(cfg, 0.95, true)
	},
}

// encodeValue fills buf with a self-describing value: which key it
// belongs to, which client wrote it, that client's write number, and
// a checksum over the whole.
func encodeValue(buf []byte, key int, client uint32, seq uint64) {
	copy(buf, "ACEB")
	binary.BigEndian.PutUint32(buf[4:], uint32(key))
	binary.BigEndian.PutUint32(buf[8:], client)
	binary.BigEndian.PutUint64(buf[12:], seq)
	binary.BigEndian.PutUint32(buf[20:], 0)
	x := uint64(key)<<40 ^ uint64(client)<<20 ^ seq ^ 0x9E3779B97F4A7C15
	for i := 24; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.BigEndian.PutUint64(buf[i:], x)
	}
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf))
}

// checkValue verifies that b is an intact value written for key.
func checkValue(b []byte, key int) error {
	if len(b) != valueLen || string(b[:4]) != "ACEB" {
		return fmt.Errorf("key %d: value of %d bytes is not one this benchmark wrote", key, len(b))
	}
	if got := int(binary.BigEndian.Uint32(b[4:])); got != key {
		return fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	sum := binary.BigEndian.Uint32(b[20:])
	c := make([]byte, valueLen)
	copy(c, b)
	binary.BigEndian.PutUint32(c[20:], 0)
	if crc32.ChecksumIEEE(c) != sum {
		return fmt.Errorf("key %d: value checksum mismatch", key)
	}
	return nil
}

// checkRead verifies one GET answer: found, intact, for the right key,
// and not older than the last write this client saw acknowledged.
func checkRead(value []byte, version uint64, found bool, key int, acked uint64) error {
	if !found {
		return fmt.Errorf("key %d: not found, but it was preloaded", key)
	}
	if err := checkValue(value, key); err != nil {
		return err
	}
	if version < acked {
		return fmt.Errorf("key %d: read version %d after version %d was acknowledged", key, version, acked)
	}
	return nil
}

// storeGen is client's seeded op generator: zipfian keys, reads and
// writes in the workload's proportion.
func storeGen(cfg runConfig, client int, readFraction float64) *workload.Generator {
	return workload.NewGenerator(cfg.seed*1000+int64(client), cfg.sizes.keys, zipfTheta, readFraction)
}

type storeEnv struct {
	cfg          runConfig
	readFraction float64
	bounded      bool
	dir          string
	cluster      *pstore.Cluster
	paths        []string
	ws           []*storeWorker
}

// cacheFS is the real filesystem with the device taken out: the store
// writes its logs and snapshots through the same system calls, into the
// operating system's cache, and a flush returns at once. The sandbox's
// virtual disk is shared with other machines and an fsync on it takes
// 0.2 to 30 ms from one minute to the next, so a flush that waited for
// it would time the host's other tenants. The flushes are still counted
// (storage.syncs_per_append), and bench.fsync_us says what one costs
// here.
type cacheFS struct{ storage.FS }

var storeOptions = storage.Options{FS: cacheFS{storage.OS}}

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

func nodeName(i int) string { return fmt.Sprintf("pstore%d", i) }

// startStore starts three durable store nodes that keep their logs
// under dir, as pstore.StartCluster does, on storeOptions.
func startStore(dir string) (*pstore.Cluster, error) {
	c := &pstore.Cluster{}
	for i := 1; i <= replicas; i++ {
		n, err := pstore.NewNode(pstore.Config{
			Daemon:  daemon.Config{Name: nodeName(i)},
			Dir:     dir,
			Storage: storeOptions,
		})
		if err != nil {
			c.StopAll()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
		if err := n.Start(); err != nil {
			c.StopAll()
			return nil, err
		}
	}
	addrs := c.Addrs()
	for i, n := range c.Nodes {
		n.SetPeers(append(append([]string{}, addrs[:i]...), addrs[i+1:]...))
	}
	return c, nil
}

func setupStore(cfg runConfig, readFraction float64, bounded bool) (environment, error) {
	e := &storeEnv{cfg: cfg, readFraction: readFraction, bounded: bounded, dir: filepath.Join(cfg.dir, "store")}
	e.paths = make([]string, cfg.sizes.keys)
	for k := range e.paths {
		e.paths[k] = workload.Path(keyPrefix, k)
	}
	if err := e.preload(); err != nil {
		return nil, err
	}
	var err error
	if e.cluster, err = startStore(e.dir); err != nil {
		return nil, fmt.Errorf("start store cluster: %w", err)
	}
	for i := 0; i < cfg.clients; i++ {
		pool := daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry(), Seed: cfg.seed + int64(i)})
		w := &storeWorker{
			id:      uint32(i),
			env:     e,
			pool:    pool,
			store:   pstore.NewClient(pool, e.cluster.Addrs()),
			gen:     storeGen(cfg, i, readFraction),
			acked:   make([]uint64, cfg.sizes.keys),
			value:   make([]byte, valueLen),
			bounded: bounded,
			leg:     newLegClient(e.cluster.Addrs(), i),
		}
		for k := range w.acked {
			w.acked[k] = 1 // the preload's version
		}
		e.ws = append(e.ws, w)
		if err := w.leg.put(context.Background()); err != nil {
			e.close()
			return nil, fmt.Errorf("write scratch key: %w", err)
		}
	}
	return e, nil
}

// preload puts every key at version 1 into the log of each of the
// three nodes before they start, so that they come up holding the data
// the way a restarted node does. Writing the keys through the quorum
// instead takes ten seconds on a slow host, three times a run.
func (e *storeEnv) preload() error {
	stamp := uint64(hlc.New(nil, 0, nil).Now())
	values := make([]byte, len(e.paths)*valueLen)
	recs := make([]storage.Record, len(e.paths))
	for k := range recs {
		v := values[k*valueLen : (k+1)*valueLen]
		encodeValue(v, k, loaderClient, 0)
		recs[k] = storage.Record{Path: e.paths[k], Value: v, Version: 1, HLC: stamp}
	}
	for i := 1; i <= replicas; i++ {
		eng, _, _, err := storage.Open(filepath.Join(e.dir, nodeName(i)), storeOptions)
		if err != nil {
			return fmt.Errorf("preload %s: %w", nodeName(i), err)
		}
		if err := errors.Join(eng.AppendBatch(recs), eng.Close()); err != nil {
			return fmt.Errorf("preload %s: %w", nodeName(i), err)
		}
	}
	return nil
}

func (e *storeEnv) workers() []worker {
	out := make([]worker, len(e.ws))
	for i, w := range e.ws {
		out[i] = w
	}
	return out
}

func (e *storeEnv) clientRegistries() []*telemetry.Registry {
	out := make([]*telemetry.Registry, len(e.ws))
	for i, w := range e.ws {
		out[i] = w.pool.Telemetry()
	}
	return out
}

func (e *storeEnv) serverRegistries() []*telemetry.Registry {
	out := make([]*telemetry.Registry, len(e.cluster.Nodes))
	for i, n := range e.cluster.Nodes {
		out[i] = n.Telemetry()
	}
	return out
}

// sampleCommands returns the replica-facing commands of the workload:
// the psget and psput legs in the workload's read/write proportion.
func (e *storeEnv) sampleCommands(n int) []*cmdlang.CmdLine {
	g := workload.NewGenerator(int64(n), e.cfg.sizes.keys, zipfTheta, e.readFraction)
	buf := make([]byte, valueLen)
	out := make([]*cmdlang.CmdLine, n)
	for i := range out {
		op := g.Next()
		if op.Kind == workload.OpGet {
			out[i] = legGet(e.paths[op.Key])
		} else {
			encodeValue(buf, op.Key, 0, uint64(i))
			out[i] = legPut(e.paths[op.Key], buf, uint64(i+2))
		}
	}
	return out
}

func legGet(path string) *cmdlang.CmdLine {
	return cmdlang.New("psget").SetString("path", path)
}

// legFetch is the version probe a put starts with.
func legFetch(path string) *cmdlang.CmdLine {
	return cmdlang.New("psfetch").SetString("path", path)
}

func legPut(path string, value []byte, version uint64) *cmdlang.CmdLine {
	return cmdlang.New("psput").SetString("path", path).
		SetString("value", hex.EncodeToString(value)).SetInt("version", int64(version))
}

// legClient calls a single replica directly, on a scratch path of its
// own, the way one leg of a quorum fan-out does. Each worker has one,
// with a pool of its own, so that the probes' and the replay's traffic
// stays out of the counters of the pools the workers call through.
type legClient struct {
	pool    *daemon.Pool
	store   *pstore.Client
	addr    string
	path    string
	version uint64
	value   []byte
}

func newLegClient(addrs []string, client int) *legClient {
	pool := daemon.NewPool(nil)
	l := &legClient{
		pool: pool, store: pstore.NewClient(pool, addrs), addr: addrs[client%len(addrs)],
		path: fmt.Sprintf("%s/c%d", legPrefix, client), value: make([]byte, valueLen),
	}
	encodeValue(l.value, 0, loaderClient, 0)
	return l
}

func (l *legClient) close() {
	l.store.Close()
	l.pool.Close()
}

// get reads the scratch key from one replica.
func (l *legClient) get(ctx context.Context) error {
	_, err := l.pool.CallContext(ctx, l.addr, legGet(l.path))
	return err
}

// fetch probes the scratch key's version on one replica.
func (l *legClient) fetch(ctx context.Context) error {
	_, err := l.pool.CallContext(ctx, l.addr, legFetch(l.path))
	return err
}

// put writes the scratch key's next version to one replica and waits
// for it to be durable there.
func (l *legClient) put(ctx context.Context) error {
	l.version++
	_, err := l.pool.CallContext(ctx, l.addr, legPut(l.path, l.value, l.version))
	return err
}

func (e *storeEnv) layerMetrics(ctx context.Context, n probeSizes, m map[string]float64, ph *phase) error {
	l := e.ws[0].leg
	legGetUS, err := timeCalls(n.slow, func() error { return l.get(ctx) })
	if err != nil {
		return err
	}
	legPutUS, err := timeCalls(n.slow, func() error { return l.put(ctx) })
	if err != nil {
		return err
	}
	var v uint64
	knownUS, err := timeCalls(n.slow, func() error {
		v++
		return l.store.PutVersionContext(ctx, legPrefix+"/known", l.value, v)
	})
	if err != nil {
		return err
	}
	probedUS, err := timeCalls(n.slow, func() error {
		_, err := l.store.PutContext(ctx, legPrefix+"/probed", l.value)
		return err
	})
	if err != nil {
		return err
	}
	m["pstore.leg_get_us"] = legGetUS
	m["pstore.leg_put_us"] = legPutUS
	m["pstore.fanout_self_get_us"] = ph.classDist(storeGet).quantileUS(0.5) - legGetUS
	m["pstore.fanout_self_put_us"] = ph.classDist(storePut).quantileUS(0.5) - legPutUS
	m["pstore.put_known_version_us"] = knownUS
	m["pstore.probe_share"] = ratio(probedUS-knownUS, probedUS)

	reads := ph.classCount(storeGet)
	cb, ca := ph.clientBefore, ph.clientAfter
	m["pstore.read_stragglers_per_read"] = ratio(counterDelta(cb, ca, pstore.MetricReadStragglers), reads)
	m["pstore.read_repairs"] = counterDelta(cb, ca, pstore.MetricReadRepairs)
	hits := counterDelta(cb, ca, pstore.MetricBoundedHits)
	fallbacks := counterDelta(cb, ca, pstore.MetricBoundedFallbacks)
	m["pstore.bounded_hit_ratio"] = ratio(hits, hits+fallbacks)
	m["pstore.bounded_fallbacks_per_read"] = ratio(fallbacks, reads)
	m["pstore.staleness_violations"] = counterDelta(cb, ca, staleness.MetricViolations)
	var leases, share float64
	for i, w := range e.ws {
		leases += float64(w.store.Leases().Len())
		share += float64(ca[i].Gauge(staleness.MetricShare)) / 1000
	}
	m["pstore.lease_table_len"] = leases / float64(len(e.ws))
	m["pstore.staleness_share_end"] = share / float64(len(e.ws))

	sb, sa := ph.serverBefore, ph.serverAfter
	m["storage.syncs_per_append"] = ratio(counterDelta(sb, sa, pstore.MetricWALSyncs), counterDelta(sb, sa, pstore.MetricWALAppends))
	m["storage.snapshots"] = counterDelta(sb, sa, pstore.MetricSnapshots)
	onDisk, err := dirBytes(e.dir)
	if err != nil {
		return err
	}
	m["storage.disk_bytes_per_live_byte"] = ratio(float64(onDisk), float64(e.cfg.sizes.keys*valueLen))
	return storageProbes(e.cfg.dir, n, m)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			// A log segment deleted by a snapshot between listing and
			// stat is not an error of the walk.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("measure %s: %w", dir, err)
	}
	return total, nil
}

// verify crashes all three nodes, restarts them from what they left on
// disk, and quorum-reads every key a worker saw a put acknowledged for:
// each must hold an intact value at no less than the highest version
// acknowledged. The
// operating system's cache survives the crash of a process, so this
// catches writes acknowledged before they reached the log, not writes
// the log had not yet flushed; the chaos suite covers those.
func (e *storeEnv) verify(ctx context.Context, m map[string]float64) (int, error) {
	for _, w := range e.ws {
		if n := w.pool.Telemetry().Snapshot().Counter(staleness.MetricViolations); n != 0 {
			return 0, fmt.Errorf("%d bounded reads were answered below their lease's version", n)
		}
		w.store.Close()
		w.leg.store.Close()
	}
	for _, n := range e.cluster.Nodes {
		n.Crash()
	}

	t0 := time.Now()
	eng, recs, _, err := storage.Open(filepath.Join(e.dir, nodeName(1)), storeOptions)
	if err != nil {
		return 0, fmt.Errorf("recover crashed node: %w", err)
	}
	m["storage.recovery_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	m["storage.recovery_records"] = float64(len(recs))
	if err := eng.Close(); err != nil {
		return 0, fmt.Errorf("close recovered log: %w", err)
	}

	if e.cluster, err = startStore(e.dir); err != nil {
		return 0, fmt.Errorf("restart store cluster: %w", err)
	}
	pool := daemon.NewPool(nil)
	defer pool.Close()
	store := pstore.NewClient(pool, e.cluster.Addrs())
	defer store.Close()

	lost := make([]int, len(e.ws))
	errs := make([]error, len(e.ws))
	var wg sync.WaitGroup
	for c := range e.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < len(e.paths); k += len(e.ws) {
				var acked uint64
				for _, w := range e.ws {
					acked = max(acked, w.acked[k])
				}
				if acked == 1 {
					continue // only the preload wrote it
				}
				value, version, found, err := store.GetContext(ctx, e.paths[k])
				if err != nil {
					errs[c] = fmt.Errorf("read back key %d: %w", k, err)
					return
				}
				if checkRead(value, version, found, k, acked) != nil {
					lost[c]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range lost {
		total += n
	}
	return total, errors.Join(errs...)
}

func (e *storeEnv) close() {
	for _, w := range e.ws {
		w.store.Close()
		w.pool.Close()
		w.leg.close()
	}
	e.cluster.StopAll()
}

type storeWorker struct {
	id      uint32
	env     *storeEnv
	pool    *daemon.Pool
	store   *pstore.Client
	gen     *workload.Generator
	acked   []uint64 // per key, the highest version this worker saw acknowledged
	seq     uint64
	value   []byte
	bounded bool
	leg     *legClient
	last    workload.Op
}

func (w *storeWorker) step(ctx context.Context) opResult {
	op := w.gen.Next()
	w.last = op
	path := w.env.paths[op.Key]
	if op.Kind == workload.OpGet {
		var (
			value   []byte
			version uint64
			found   bool
			err     error
		)
		t0 := time.Now()
		if w.bounded {
			value, version, found, err = w.store.GetBoundedContext(ctx, path, boundedDelta)
		} else {
			value, version, found, err = w.store.GetContext(ctx, path)
		}
		d := time.Since(t0)
		if err == nil {
			err = checkRead(value, version, found, op.Key, w.acked[op.Key])
		}
		return opResult{class: storeGet, start: t0, d: d, err: err}
	}
	w.seq++
	encodeValue(w.value, op.Key, w.id, w.seq)
	t0 := time.Now()
	version, err := w.store.PutContext(ctx, path, w.value)
	d := time.Since(t0)
	if err == nil {
		w.acked[op.Key] = max(w.acked[op.Key], version)
	}
	return opResult{class: storePut, start: t0, d: d, err: err}
}

func (w *storeWorker) generate() {
	if op := w.gen.Next(); op.Kind == workload.OpPut {
		encodeValue(w.value, op.Key, w.id, w.seq)
	}
}

// replay runs, on the worker's scratch key, one replica leg of each
// round the op made: a read leg for a get; for a put the version probe,
// then the durable write with the log append behind it.
func (w *storeWorker) replay(ctx context.Context, r *replayer, root int) {
	l := w.leg
	if w.last.Kind == workload.OpGet {
		r.span(root, "pstore.leg_get", func() error { return l.get(ctx) })
		return
	}
	r.span(root, "pstore.leg_probe", func() error { return l.fetch(ctx) })
	leg := r.span(root, "pstore.leg_put", func() error { return l.put(ctx) })
	r.appendSpan(leg, w.value)
}
