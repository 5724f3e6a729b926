package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
	"ace/internal/telemetry"
	"ace/internal/workload"
)

const (
	dirResolve = iota
	dirRenew
	dirChurn
)

const (
	resolveShare = 0.80
	renewShare   = 0.15 // the remaining 0.05 is churn
	// leaseMS is the longest lease the directory grants, so that no
	// lease can lapse within a run: an expiration is then a fault.
	leaseMS = int64(asd.MaxLease / time.Millisecond)
	// coherenceLimit bounds how long a churned name may keep resolving
	// to its old address before the op counts as failed.
	coherenceLimit = 2 * time.Second
	coherencePoll  = 50 * time.Microsecond
)

var directorySpec = workloadSpec{
	name:    "directory",
	classes: []string{"resolve", "renew", "churn"},
	read:    []int{dirResolve},
	write:   []int{dirRenew},
	setup:   setupDirectory,
}

type dirEnv struct {
	cfg       runConfig
	cluster   *pstore.Cluster
	storePool *daemon.Pool
	store     *pstore.Client
	asds      []*asd.Service
	names     []string
	ws        []*dirWorker
}

// servicePort is the port a service listens on after it has moved
// generation times.
func servicePort(generation int) int { return 2000 + generation%60000 }

func serviceAddr(idx, generation int) string {
	return fmt.Sprintf("10.1.%d.%d:%d", idx/256, idx%256, servicePort(generation))
}

func registerCmd(name string, idx, generation int) *cmdlang.CmdLine {
	return cmdlang.New(daemon.CmdRegister).
		SetWord("name", name).SetWord("host", "machine25").SetInt("port", int64(servicePort(generation))).
		SetString("addr", serviceAddr(idx, generation)).SetWord("room", "hawk").
		SetString("class", "Service.Device.PTZCamera").SetInt("lease", leaseMS)
}

func renewCmd(name string) *cmdlang.CmdLine {
	return cmdlang.New(daemon.CmdRenew).SetWord("name", name).SetInt("lease", leaseMS)
}

func unregisterCmd(name string) *cmdlang.CmdLine {
	return cmdlang.New(daemon.CmdUnregister).SetWord("name", name)
}

func setupDirectory(cfg runConfig) (environment, error) {
	e := &dirEnv{cfg: cfg}
	var err error
	if e.cluster, err = pstore.StartCluster(3, "", 0); err != nil {
		return nil, fmt.Errorf("start directory store: %w", err)
	}
	e.storePool = daemon.NewPoolConfig(daemon.PoolConfig{Telemetry: telemetry.NewRegistry(), Seed: cfg.seed})
	e.store = pstore.NewClient(e.storePool, e.cluster.Addrs())
	fail := func(err error) (environment, error) {
		e.close()
		return nil, err
	}
	for i := 0; i < 3; i++ {
		s := asd.New(asd.Config{
			Daemon: daemon.Config{Name: fmt.Sprintf("bench_asd%d", i+1)},
			Store:  e.store,
		})
		if err := s.Start(); err != nil {
			return fail(fmt.Errorf("start directory replica %d: %w", i+1, err))
		}
		e.asds = append(e.asds, s)
	}
	if err := asd.SubscribeReplicas(e.storePool, e.asds); err != nil {
		return fail(fmt.Errorf("cross-subscribe directory replicas: %w", err))
	}

	e.names = make([]string, cfg.sizes.services)
	expect := make([]string, len(e.names))
	for i := range e.names {
		e.names[i] = fmt.Sprintf("svc%04d", i)
		expect[i] = serviceAddr(i, 0)
		home := e.asds[i%len(e.asds)].Addr()
		if _, err := e.storePool.Call(home, registerCmd(e.names[i], i, 0)); err != nil {
			return fail(fmt.Errorf("register %s: %w", e.names[i], err))
		}
	}

	for i := 0; i < cfg.clients; i++ {
		w, err := newDirWorker(e, i, expect)
		if err != nil {
			return fail(err)
		}
		e.ws = append(e.ws, w)
	}
	return e, nil
}

func (e *dirEnv) workers() []worker {
	out := make([]worker, len(e.ws))
	for i, w := range e.ws {
		out[i] = w
	}
	return out
}

func (e *dirEnv) clientRegistries() []*telemetry.Registry {
	out := make([]*telemetry.Registry, len(e.ws))
	for i, w := range e.ws {
		out[i] = w.d.Telemetry()
	}
	return out
}

func (e *dirEnv) serverRegistries() []*telemetry.Registry {
	out := []*telemetry.Registry{e.storePool.Telemetry()}
	for _, s := range e.asds {
		out = append(out, s.Telemetry())
	}
	for _, n := range e.cluster.Nodes {
		out = append(out, n.Telemetry())
	}
	return out
}

// sampleCommands returns the directory-facing commands of the
// workload. Warm resolves send nothing, so the mix on the wire is
// renewals and the three commands of a churn.
func (e *dirEnv) sampleCommands(n int) []*cmdlang.CmdLine {
	out := make([]*cmdlang.CmdLine, n)
	for i := range out {
		name := e.names[i%len(e.names)]
		switch i % 6 {
		case 0:
			out[i] = unregisterCmd(name)
		case 1:
			out[i] = registerCmd(name, i%len(e.names), i)
		case 2:
			out[i] = cmdlang.New(daemon.CmdLookup).SetWord("name", name)
		default:
			out[i] = renewCmd(name)
		}
	}
	return out
}

func (e *dirEnv) layerMetrics(ctx context.Context, n probeSizes, m map[string]float64, ph *phase) error {
	w := e.ws[0]
	warm := asd.Query{Name: e.names[0]}
	if _, err := w.client.ResolveContext(ctx, warm); err != nil {
		return fmt.Errorf("directory probe: %w", err)
	}
	hitNS, err := timeBatches(n.fast, func(int) error {
		_, err := w.client.ResolveContext(ctx, warm)
		return err
	})
	if err != nil {
		return err
	}
	m["asd.resolve_hit_ns"] = hitNS
	if m["asd.resolve_miss_us"], err = timeCalls(n.calls, func() error {
		_, err := asd.Resolve(w.d.Pool(), w.home, warm)
		return err
	}); err != nil {
		return err
	}

	dir := asd.NewDirectory()
	for i, name := range e.names {
		if _, err := dir.Register(asd.Entry{Name: name, Addr: serviceAddr(i, 0), Class: "Service.Device.PTZCamera", Lease: asd.MaxLease}); err != nil {
			return fmt.Errorf("directory probe: %w", err)
		}
	}
	if m["asd.directory_lookup_ns"], err = timeBatches(n.fast, func(i int) error {
		if len(dir.Lookup(asd.Query{Name: e.names[i%len(e.names)]})) != 1 {
			return errors.New("directory probe: lookup missed a registered name")
		}
		return nil
	}); err != nil {
		return err
	}

	cb, ca := ph.clientBefore, ph.clientAfter
	hits := counterDelta(cb, ca, daemon.MetricLookupCacheHits, daemon.MetricLookupCacheNegativeHits)
	misses := counterDelta(cb, ca, daemon.MetricLookupCacheMisses)
	m["asd.cache_hit_ratio"] = ratio(hits, hits+misses)

	sb, sa := ph.serverBefore, ph.serverAfter
	lookups, lookupTime := histDelta(sb, sa, func(n string) bool { return n == asd.MetricLookupLatency })
	m["asd.lookup_server_us"] = ratio(float64(lookupTime.Microseconds()), lookups)
	ops := float64(ph.ops)
	m["asd.store_reads_per_op"] = ratio(counterDelta(sb, sa, asd.MetricReplicaStoreReads), ops)
	m["asd.store_writes_per_renew"] = ratio(counterDelta(sb, sa, asd.MetricReplicaStoreWrites),
		ph.classCount(dirRenew)+ph.classCount(dirChurn))
	m["asd.read_throughs"] = counterDelta(sb, sa, asd.MetricReplicaReadThroughs)
	m["asd.expirations"] = counterDelta(sb, sa, asd.MetricExpirations)
	m["daemon.notify_sent_per_churn"] = ratio(counterDelta(sb, sa, daemon.MetricNotifySent), ph.classCount(dirChurn))
	return nil
}

// verify checks that no lease expired: every lease outlives the run.
func (e *dirEnv) verify(context.Context, map[string]float64) (int, error) {
	for _, s := range e.asds {
		if n := s.Telemetry().Snapshot().Counter(asd.MetricExpirations); n != 0 {
			return 0, fmt.Errorf("directory %s expired %d live leases", s.Name(), n)
		}
	}
	return 0, nil
}

func (e *dirEnv) close() {
	for _, w := range e.ws {
		w.d.Stop()
	}
	for _, s := range e.asds {
		s.Stop()
	}
	if e.store != nil {
		e.store.Close()
		e.storePool.Close()
	}
	e.cluster.StopAll()
}

// dirGen is one client's seeded op generator for the directory
// workload.
type dirGen struct {
	kinds  *rand.Rand
	zipf   *workload.Zipfian
	stable int
	// owned are the stable names this client renews; cold the names it
	// alone resolves and churns. No two clients write the same name, so
	// every reply has one correct value.
	owned, cold []int
	churns      int
}

func newDirGen(cfg runConfig, client int) (*dirGen, error) {
	g := &dirGen{
		kinds:  rand.New(rand.NewSource(cfg.seed*1000 + int64(client))),
		zipf:   workload.NewZipfian(cfg.seed*1000+int64(client)+500, cfg.sizes.services, zipfTheta),
		stable: cfg.sizes.services * 3 / 4,
	}
	for i := client; i < cfg.sizes.services; i += cfg.clients {
		if i < g.stable {
			g.owned = append(g.owned, i)
		} else {
			g.cold = append(g.cold, i)
		}
	}
	if len(g.owned) == 0 || len(g.cold) == 0 {
		return nil, fmt.Errorf("directory: %d services are too few for %d clients", cfg.sizes.services, cfg.clients)
	}
	return g, nil
}

// pick draws the next op: its class, and the index of the name it
// concerns. Resolves follow the zipfian over all names, those that
// fall on a cold name going to one of the client's own; renewals go to
// the client's own stable names; churn walks its cold names in turn.
func (g *dirGen) pick() (class, idx int) {
	u := g.kinds.Float64()
	k := g.zipf.Next()
	switch {
	case u < resolveShare:
		if k < g.stable {
			return dirResolve, k
		}
		return dirResolve, g.cold[k%len(g.cold)]
	case u < resolveShare+renewShare:
		return dirRenew, g.owned[k%len(g.owned)]
	default:
		g.churns++
		return dirChurn, g.cold[g.churns%len(g.cold)]
	}
}

// checkResolve verifies one resolve answer against the address the
// name is registered at.
func checkResolve(name, got, want string) error {
	if got != want {
		return fmt.Errorf("directory: %s resolved to %q, registered at %s", name, got, want)
	}
	return nil
}

// dirWorker is one daemon of the environment using the directory: it
// resolves peers through its pool's lookup cache, keeps leases alive,
// and now and then a service it owns moves to a new address.
type dirWorker struct {
	env    *dirEnv
	d      *daemon.Daemon // hears the directory's change notifications
	client *asd.Client
	home   string // the replica this worker's commands go to

	gen        *dirGen
	expect     []string // per name, the address a resolve must return
	generation int

	last struct {
		class, idx int
		pairs      [][2]*cmdlang.CmdLine
	}
}

func newDirWorker(e *dirEnv, id int, expect []string) (*dirWorker, error) {
	w := &dirWorker{
		env:    e,
		d:      daemon.New(daemon.Config{Name: fmt.Sprintf("bench_dirclient%d", id)}),
		home:   e.asds[id%len(e.asds)].Addr(),
		expect: append([]string(nil), expect...),
	}
	var err error
	if w.gen, err = newDirGen(e.cfg, id); err != nil {
		return nil, err
	}
	// The worker's own replica first; the others are its failover.
	addrs := []string{w.home}
	for _, s := range e.asds {
		if s.Addr() != w.home {
			addrs = append(addrs, s.Addr())
		}
	}
	w.client = asd.NewClient(w.d.Pool(), addrs...)
	w.client.HandleInvalidation(w.d)
	if err := w.d.Start(); err != nil {
		return nil, fmt.Errorf("start directory client %d: %w", id, err)
	}
	if err := w.client.SubscribeInvalidation(w.d); err != nil {
		w.d.Stop()
		return nil, fmt.Errorf("subscribe directory client %d: %w", id, err)
	}
	return w, nil
}

func (w *dirWorker) call(ctx context.Context, cmd *cmdlang.CmdLine) error {
	reply, err := w.d.Pool().CallContext(ctx, w.home, cmd)
	w.last.pairs = append(w.last.pairs, [2]*cmdlang.CmdLine{cmd, reply})
	return err
}

func (w *dirWorker) step(ctx context.Context) opResult {
	class, idx := w.gen.pick()
	name := w.env.names[idx]
	w.last.class, w.last.idx, w.last.pairs = class, idx, w.last.pairs[:0]
	t0 := time.Now()
	var err error
	switch class {
	case dirResolve:
		var addr string
		addr, err = w.client.ResolveContext(ctx, asd.Query{Name: name})
		if err == nil {
			err = checkResolve(name, addr, w.expect[idx])
		}
	case dirRenew:
		err = w.call(ctx, renewCmd(name))
	default:
		err = w.churn(ctx, idx, t0)
	}
	return opResult{class: class, start: t0, d: time.Since(t0), err: err}
}

// churn moves a cold service to a new address: unregister, register,
// then resolve until the worker's own cache has dropped the old
// address — the §2.6 notification has to arrive and evict it — and the
// miss has fetched the new one from the directory.
func (w *dirWorker) churn(ctx context.Context, idx int, t0 time.Time) error {
	name := w.env.names[idx]
	w.generation++
	addr := serviceAddr(idx, w.generation)
	if err := w.call(ctx, unregisterCmd(name)); err != nil {
		return err
	}
	if err := w.call(ctx, registerCmd(name, idx, w.generation)); err != nil {
		return err
	}
	w.expect[idx] = addr
	for {
		got, err := w.client.ResolveContext(ctx, asd.Query{Name: name})
		if err == nil && got == addr {
			return nil
		}
		if time.Since(t0) > coherenceLimit {
			return fmt.Errorf("directory: %s still resolves to %q (%v) %v after it moved to %s", name, got, err, coherenceLimit, addr)
		}
		time.Sleep(coherencePoll)
	}
}

func (w *dirWorker) generate() {
	class, idx := w.gen.pick()
	switch name := w.env.names[idx]; class {
	case dirRenew:
		sink = renewCmd(name)
	case dirChurn:
		sink = unregisterCmd(name)
		sink = registerCmd(name, idx, w.generation)
	}
}

// replay re-runs the layers under the last op: for a resolve the same
// resolve again, which the op itself has made a cache hit; for a
// renewal or a churn each command it sent, and the quorum store write
// the directory made on its behalf.
func (w *dirWorker) replay(ctx context.Context, r *replayer, root int) {
	if w.last.class == dirResolve {
		name := w.env.names[w.last.idx]
		r.span(root, "asd.resolve_hit", func() error {
			addr, err := w.client.ResolveContext(ctx, asd.Query{Name: name})
			if err != nil {
				return err
			}
			return checkResolve(name, addr, w.expect[w.last.idx])
		})
		return
	}
	for _, p := range w.last.pairs {
		r.exchange(ctx, root, p[0], p[1], false)
		r.span(root, "pstore.quorum_put", func() error {
			_, err := w.env.store.PutContext(ctx, fmt.Sprintf("%s/d%d", legPrefix, r.client), []byte(p[0].String()))
			return err
		})
	}
}
