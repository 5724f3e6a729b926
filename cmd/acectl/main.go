// Command acectl is the terminal counterpart of the Fig 2 ACE control
// GUI: it browses the service tree through the ASD, inspects a
// service's command semantics, and issues ACE commands to any daemon.
//
// Usage (ASD address from aced's output):
//
//	acectl -asd HOST:PORT tree
//	acectl -asd HOST:PORT lookup [-name N] [-class C] [-room R]
//	acectl -asd HOST:PORT commands SERVICE
//	acectl -asd HOST:PORT call SERVICE 'move pan=10 tilt=5;'
//	acectl -asd HOST:PORT raw ADDR 'ping;'
//	acectl -asd HOST:PORT stats SERVICE
//	acectl -asd HOST:PORT notifications SERVICE [cmd]
//	acectl -asd HOST:PORT placement
//	acectl -asd HOST:PORT trace TRACE_ID
//
// With -trace, call and raw originate a distributed trace and print
// its id; `acectl trace ID` then assembles the spans every daemon
// recorded for it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/hlc"
	"ace/internal/pstore"
	"ace/internal/pstore/placement"
	"ace/internal/pstore/staleness"
	"ace/internal/telemetry"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "acectl: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	asdAddr := flag.String("asd", "", "ASD address (host:port)")
	withTrace := flag.Bool("trace", false, "originate a distributed trace for call/raw and print its id")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fail("missing subcommand (tree | lookup | commands | call | raw | stats | notifications | placement | trace)")
	}
	if *asdAddr == "" && args[0] != "raw" {
		fail("-asd is required")
	}

	pool := daemon.NewPool(nil)
	defer pool.Close()

	switch args[0] {
	case "tree":
		reply, err := pool.Call(*asdAddr, cmdlang.New("list"))
		if err != nil {
			fail("list: %v", err)
		}
		names := reply.Strings("names")
		fmt.Printf("%d services\n", len(names))
		for _, name := range names {
			info, err := pool.Call(*asdAddr, cmdlang.New(daemon.CmdLookup).SetWord("name", name))
			if err != nil {
				continue
			}
			fmt.Printf("  %-20s %-45s room=%-8s %s\n",
				name, info.Str("class", ""), info.Str("room", "-"), info.Str("addr", ""))
		}

	case "lookup":
		fs := flag.NewFlagSet("lookup", flag.ExitOnError)
		name := fs.String("name", "", "service name")
		class := fs.String("class", "", "service class (matches subclasses)")
		room := fs.String("room", "", "room")
		fs.Parse(args[1:]) //nolint:errcheck
		addrs, err := asd.ResolveAll(pool, *asdAddr, asd.Query{Name: *name, Class: *class, Room: *room})
		if err != nil {
			fail("lookup: %v", err)
		}
		for _, a := range addrs {
			fmt.Println(a)
		}

	case "commands":
		if len(args) < 2 {
			fail("commands SERVICE")
		}
		addr, err := asd.Resolve(pool, *asdAddr, asd.Query{Name: args[1]})
		if err != nil {
			fail("resolve %s: %v", args[1], err)
		}
		reply, err := pool.Call(addr, cmdlang.New(daemon.CmdCommands))
		if err != nil {
			fail("commands: %v", err)
		}
		fmt.Print(reply.Str("describe", ""))

	case "call":
		if len(args) < 3 {
			fail("call SERVICE 'command args;'")
		}
		addr, err := asd.Resolve(pool, *asdAddr, asd.Query{Name: args[1]})
		if err != nil {
			fail("resolve %s: %v", args[1], err)
		}
		sendRaw(pool, addr, strings.Join(args[2:], " "), *withTrace)

	case "raw":
		if len(args) < 3 {
			fail("raw ADDR 'command args;'")
		}
		sendRaw(pool, args[1], strings.Join(args[2:], " "), *withTrace)

	case "stats":
		if len(args) < 2 {
			fail("stats SERVICE")
		}
		addr, err := asd.Resolve(pool, *asdAddr, asd.Query{Name: args[1]})
		if err != nil {
			fail("resolve %s: %v", args[1], err)
		}
		printStats(pool, args[1], addr)

	case "notifications":
		if len(args) < 2 {
			fail("notifications SERVICE [cmd]")
		}
		addr, err := asd.Resolve(pool, *asdAddr, asd.Query{Name: args[1]})
		if err != nil {
			fail("resolve %s: %v", args[1], err)
		}
		query := cmdlang.New(daemon.CmdListNotifications)
		if len(args) > 2 {
			query.SetWord("cmd", args[2])
		}
		reply, err := pool.Call(addr, query)
		if err != nil {
			fail("listNotifications: %v", err)
		}
		targets := reply.Strings("targets")
		fmt.Printf("%d subscription(s)\n", len(targets))
		for _, t := range targets {
			fmt.Printf("  %s\n", t)
		}

	case "placement":
		printPlacement(pool, *asdAddr)

	case "trace":
		if len(args) < 2 {
			fail("trace TRACE_ID")
		}
		printTrace(pool, *asdAddr, args[1])

	default:
		fail("unknown subcommand %q", args[0])
	}
}

func sendRaw(pool *daemon.Pool, addr, text string, withTrace bool) {
	if !strings.HasSuffix(strings.TrimSpace(text), ";") {
		text += ";"
	}
	cmd, err := cmdlang.Parse(text)
	if err != nil {
		fail("parse: %v", err)
	}
	ctx := context.Background()
	var root telemetry.SpanContext
	if withTrace {
		root = telemetry.NewTrace()
		ctx = telemetry.WithSpanContext(ctx, root)
	}
	reply, err := pool.CallContext(ctx, addr, cmd)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(reply.String())
	if withTrace {
		fmt.Printf("trace %s\n", telemetry.FormatID(root.TraceID))
	}
}

// printStats fetches and prints a service's telemetry snapshot.
func printStats(pool *daemon.Pool, name, addr string) {
	reply, err := pool.Call(addr, cmdlang.New(daemon.CmdTelemetry).SetWord("op", "metrics"))
	if err != nil {
		fail("telemetry metrics: %v", err)
	}
	snap, err := telemetry.DecodeSnapshot(reply)
	if err != nil {
		fail("decode snapshot: %v", err)
	}
	fmt.Printf("%s @ %s\n", name, addr)
	printFlowSummary(snap)
	printStorageSummary(snap)
	printPlacementStats(snap)
	printConsistencySummary(snap)
	printDirectorySummary(snap)
	for _, c := range snap.Counters {
		fmt.Printf("  counter    %-28s %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Printf("  gauge      %-28s %d\n", g.Name, g.Value)
	}
	for _, h := range snap.Histograms {
		avg := time.Duration(0)
		if h.Count > 0 {
			avg = time.Duration(int64(h.Sum) / h.Count)
		}
		fmt.Printf("  histogram  %-28s count=%d avg=%v\n", h.Name, h.Count, avg)
	}
}

// printFlowSummary condenses the flow.* admission-control metrics
// into an overload-at-a-glance block: current AIMD limit, inflight
// work, queue depth, and admitted-vs-shed per priority class. The raw
// counters still print below it; daemons running with flow disabled
// (or predating it) have no flow.* metrics and print nothing here.
func printFlowSummary(snap *telemetry.Snapshot) {
	admC := snap.Counter("flow.admitted.control")
	admD := snap.Counter("flow.admitted.data")
	shedC := snap.Counter("flow.shed.control")
	shedD := snap.Counter("flow.shed.data")
	limit := snap.Gauge("flow.limit")
	if admC+admD+shedC+shedD == 0 && limit == 0 {
		return
	}
	fmt.Printf("  flow       limit=%d inflight=%d queued=%d\n",
		limit, snap.Gauge("flow.inflight"), snap.Gauge("flow.queue.depth"))
	fmt.Printf("  flow       control admitted=%d shed=%d   data admitted=%d shed=%d   conns shed=%d\n",
		admC, shedC, admD, shedD, snap.Counter("flow.conns.shed"))
}

// printStorageSummary condenses the pstore storage-engine metrics
// into a durability-at-a-glance block: WAL traffic and its first
// failed append (a sealed log), the snapshot/truncate cycle, and what
// recovery saw at boot. In-memory daemons have no pstore.wal.* metrics
// and print nothing here.
func printStorageSummary(snap *telemetry.Snapshot) {
	appends := snap.Counter("pstore.wal.appends")
	appendErrs := snap.Counter("pstore.wal.append_errors")
	if appends+appendErrs == 0 && snap.Gauge("pstore.wal.segments") == 0 {
		return
	}
	fmt.Printf("  storage    wal appends=%d errors=%d syncs=%d bytes=%d segments=%d\n",
		appends, appendErrs, snap.Counter("pstore.wal.syncs"),
		snap.Gauge("pstore.wal.bytes"), snap.Gauge("pstore.wal.segments"))
	fmt.Printf("  storage    snapshots=%d errors=%d truncated_segments=%d\n",
		snap.Counter("pstore.snapshot.count"), snap.Counter("pstore.snapshot.errors"),
		snap.Counter("pstore.snapshot.truncated_segments"))
	fmt.Printf("  storage    recovery replayed=%d torn_tail=%d corrupt=%d bad_snapshots=%d\n",
		snap.Counter("pstore.recovery.replayed"), snap.Counter("pstore.recovery.torn_tail"),
		snap.Counter("pstore.recovery.corrupt_records"), snap.Counter("pstore.recovery.bad_snapshots"))
}

// printPlacementStats condenses the pstore.placement.* metrics into a
// sharding-at-a-glance block. On a store node: the epoch it enforces,
// installed maps, stale-epoch rejections, and partitions pulled in as
// a move destination. On a router/coordinator pool: map fetches,
// invalidations, redirect retries, dual-applied writes, and moves
// driven. wrong_group ticking during a map change is normal; growing
// without bound means a client cannot refresh its map. Daemons
// without placement metrics print nothing here.
func printPlacementStats(snap *telemetry.Snapshot) {
	epoch := snap.Gauge(placement.MetricEpoch)
	installs := snap.Counter(placement.MetricInstalls)
	rejects := snap.Counter(placement.MetricRejects)
	pulled := snap.Counter(placement.MetricTransferPulls)
	if epoch != 0 || installs != 0 || rejects != 0 || pulled != 0 {
		fmt.Printf("  placement  epoch=%d installs=%d wrong_group=%d transfer_pulled=%d\n",
			epoch, installs, rejects, pulled)
	}
	fetches := snap.Counter(placement.MetricMapFetches)
	invals := snap.Counter(placement.MetricInvalidations)
	redirects := snap.Counter(placement.MetricRedirects)
	duals := snap.Counter(placement.MetricDualWrites)
	moves := snap.Counter(placement.MetricMoves)
	if fetches != 0 || invals != 0 || redirects != 0 || duals != 0 || moves != 0 {
		fmt.Printf("  placement  map_fetches=%d invalidations=%d redirects=%d dual_writes=%d moves=%d\n",
			fetches, invals, redirects, duals, moves)
	}
}

// printConsistencySummary condenses the hlc/staleness/bounded-read
// metrics into a consistency-at-a-glance block, all of it from a
// store client's pool: the write clock's skew clamps (nonzero means a
// replica reported a version from a clock running fast beyond the
// tolerance) and logical overflows, write rounds refused for an equal
// or later version and retried above it (steady growth means this
// client's clock runs behind its rivals'),
// replica pass-overs (each one had reads take a stalled, failing or
// state-losing replica last for a breaker cool-down — the client
// avoiding a replica), and the bounded read spectrum — hits vs quorum
// fallbacks and staleness violations. Violations must stay zero; every
// one was discarded (never served), so a nonzero count means a
// lease-holding replica answered below the version a quorum proved it
// held — lost state, a wiped disk, a split-brain replica. Daemons
// without these metrics print nothing here.
func printConsistencySummary(snap *telemetry.Snapshot) {
	clamps := snap.Counter(hlc.MetricSkewClamps)
	overflows := snap.Counter(hlc.MetricOverflows)
	if clamps != 0 || overflows != 0 {
		fmt.Printf("  hlc        skew_clamps=%d logical_overflows=%d\n", clamps, overflows)
	}
	if conflicts := snap.Counter(pstore.MetricWriteConflicts); conflicts != 0 {
		fmt.Printf("  writes     conflicts=%d\n", conflicts)
	}
	if passovers := snap.Counter(pstore.MetricReadPassovers); passovers != 0 {
		fmt.Printf("  reads      passovers=%d\n", passovers)
	}
	hits := snap.Counter(pstore.MetricBoundedHits)
	falls := snap.Counter(pstore.MetricBoundedFallbacks)
	if hits != 0 || falls != 0 {
		fmt.Printf("  bounded    hits=%d fallbacks=%d violations=%d\n",
			hits, falls, snap.Counter(staleness.MetricViolations))
	}
}

// printDirectorySummary condenses the directory-replication and
// lookup-cache metrics into a directory-at-a-glance block. On a
// replicated ASD: entries held, store traffic behind the lease
// protocol, read-throughs serving sibling registrations, failover
// rescues (renew_saves — renewals honored from the durable deadline
// after the acking replica died), and store errors (nonzero means
// lease operations are failing closed, never expiring). On a client
// daemon: lookup-cache effectiveness and notification-driven
// evictions. Standalone directories and cacheless clients print
// nothing here.
func printDirectorySummary(snap *telemetry.Snapshot) {
	reads := snap.Counter(asd.MetricReplicaStoreReads)
	writes := snap.Counter(asd.MetricReplicaStoreWrites)
	if reads+writes != 0 || snap.Gauge(asd.MetricReplicaEntries) != 0 {
		fmt.Printf("  directory  entries=%d store reads=%d writes=%d errors=%d\n",
			snap.Gauge(asd.MetricReplicaEntries), reads, writes,
			snap.Counter(asd.MetricReplicaStoreErrors))
		fmt.Printf("  directory  read_throughs=%d renew_saves=%d sync_rounds=%d\n",
			snap.Counter(asd.MetricReplicaReadThroughs),
			snap.Counter(asd.MetricReplicaRenewSaves),
			snap.Counter(asd.MetricReplicaSyncRounds))
	}
	hits := snap.Counter(daemon.MetricLookupCacheHits)
	misses := snap.Counter(daemon.MetricLookupCacheMisses)
	negs := snap.Counter(daemon.MetricLookupCacheNegativeHits)
	if hits+misses+negs != 0 {
		total := hits + misses + negs
		fmt.Printf("  lookups    hits=%d negative_hits=%d misses=%d (%.0f%% cached) invalidations=%d evictions=%d\n",
			hits, negs, misses, float64(hits+negs)*100/float64(total),
			snap.Counter(daemon.MetricLookupCacheInvalidations),
			snap.Counter(daemon.MetricLookupCacheEvictions))
	}
}

// printPlacement fetches the published placement map from the ASD and
// prints the epoch, the ring parameters, each group's partition load,
// and any in-flight moves (the partitions currently paying dual-apply
// writes while their contents transfer).
func printPlacement(pool *daemon.Pool, asdAddr string) {
	reply, err := pool.Call(asdAddr, cmdlang.New(placement.CmdPlaceGet))
	if err != nil {
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			fmt.Println("no placement map published (unsharded deployment)")
			return
		}
		fail("placeget: %v", err)
	}
	m, err := placement.DecodeString(reply.Str("map", ""))
	if err != nil {
		fail("decode placement map: %v", err)
	}
	fmt.Printf("epoch %d  seed %d  %d partitions  %d vnodes/group  %d groups\n",
		m.Epoch, m.Seed, m.Partitions, m.VNodes, len(m.Groups))
	counts := m.Counts()
	for i, g := range m.Groups {
		fmt.Printf("  group %-12s %2d partitions  replicas %s\n",
			g.Name, counts[i], strings.Join(g.Replicas, " "))
	}
	if len(m.Moves) == 0 {
		fmt.Println("  no moves in flight")
		return
	}
	for _, mv := range m.Moves {
		fmt.Printf("  move partition %2d: %s -> %s (dual-apply open, stamp %d)\n",
			mv.Partition, m.Groups[mv.From].Name, m.Groups[mv.To].Name, m.Stamp[mv.Partition])
	}
}

// printTrace asks every registered daemon (and the ASD itself) for
// its spans of the given trace and prints the assembled tree.
func printTrace(pool *daemon.Pool, asdAddr, id string) {
	traceID, err := telemetry.ParseID(id)
	if err != nil {
		fail("bad trace id: %v", err)
	}
	addrs := map[string]bool{asdAddr: true}
	if reply, err := pool.Call(asdAddr, cmdlang.New("list")); err == nil {
		for _, name := range reply.Strings("names") {
			if info, err := pool.Call(asdAddr, cmdlang.New(daemon.CmdLookup).SetWord("name", name)); err == nil {
				if a := info.Str("addr", ""); a != "" {
					addrs[a] = true
				}
			}
		}
	}
	var spans []telemetry.Span
	query := cmdlang.New(daemon.CmdTelemetry).SetWord("op", "trace").SetString("id", id)
	for a := range addrs {
		reply, err := pool.Call(a, query.Clone())
		if err != nil {
			continue // daemon gone
		}
		got, err := telemetry.DecodeSpans(reply)
		if err != nil {
			continue
		}
		spans = append(spans, got...)
	}
	if len(spans) == 0 {
		fail("no spans recorded for trace %s", telemetry.FormatID(traceID))
	}
	fmt.Printf("trace %s: %d spans\n", telemetry.FormatID(traceID), len(spans))
	printSpanTree(spans)
}

// printSpanTree prints spans as a parent/child tree ordered by start
// time. Spans whose parent was not collected (e.g. the origin's
// implicit root) print at the top level.
func printSpanTree(spans []telemetry.Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	known := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		known[s.SpanID] = true
	}
	children := make(map[uint64][]telemetry.Span)
	var roots []telemetry.Span
	for _, s := range spans {
		if known[s.Parent] && s.Parent != s.SpanID {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var walk func(s telemetry.Span, depth int)
	walk = func(s telemetry.Span, depth int) {
		status := "ok"
		if !s.OK {
			status = "fail"
		}
		fmt.Printf("  %s%-*s %s %v %s\n",
			strings.Repeat("  ", depth), 24-2*depth, s.Service+":"+s.Name, status, s.Duration, telemetry.FormatID(s.SpanID))
		for _, c := range children[s.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
