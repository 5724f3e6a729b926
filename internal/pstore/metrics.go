package pstore

// Metric names recorded by the persistent store, in addition to the
// shell's own daemon.* and wire.* instruments. The pstore.sync.* and
// pstore.writes.* series live in each node's registry; the quorum
// latency histograms, straggler counters, and read-repair instruments
// live in the registry of the pool the Client dials through.
//
// The latency histograms come in fast-path/full-fanout pairs: the
// fast-path series (pstore.read.latency, pstore.write.latency)
// observes the time until the quorum outcome was decided — what the
// caller actually waits — while the _full series observes the time
// until the last replica of a fan-out resolved, straggler timeouts
// included. A widening gap between the two is a sick replica. The
// full series is observed once per fan-out, so a Put or Delete
// contributes one point per write round under
// pstore.write.latency_full: one, unless a round was refused.
//
// Straggler counters count replica calls that were still unresolved
// when the quorum outcome was decided (and were therefore cancelled),
// each round of a write under pstore.write.stragglers. A write asks
// every replica, so its last leg is usually one. A read asks only a
// majority and decides on the answers of all it asked, so a read
// straggler is a leg that was hedged around: pstore.read.hedges counts
// the spare legs a read launched — for a failed leg at once, for a slow
// one after the hedge delay — and on a healthy cluster both stay near
// zero. Their rate climbing is a replica failing or stalling.
//
// pstore.read.passovers counts the marks that have every read — quorum,
// bounded and any-replica — take a replica last for the breaker
// cool-down: a read hedged around it, a leg to it failed without an
// answer, or it answered a bounded read below its lease. It climbing
// is the client avoiding a replica.
//
// pstore.fanout.blocking_legs counts the legs of fan-outs that ran on
// the pool's blocking path, CallContext in a goroutine, instead of as a
// call started in place: the pool could not start them — no live
// pooled connection, a breaker not closed, output unanswered for longer
// than the hedge delay — or their started attempt failed in transport
// or was shed busy. On a warm, healthy cluster it stays at zero.
//
// pstore.write.conflicts counts write rounds refused because replicas
// held an equal or later version, each retried above it at the price
// of one more round: two writers in one millisecond, or — at a steady
// rate on one client — a clock running behind its rivals'.
const (
	MetricSyncRounds         = "pstore.sync.rounds"
	MetricSyncPulled         = "pstore.sync.pulled"
	MetricWritesApplied      = "pstore.writes.applied"
	MetricReadLatency        = "pstore.read.latency"
	MetricReadLatencyFull    = "pstore.read.latency_full"
	MetricWriteLatency       = "pstore.write.latency"
	MetricWriteLatencyFull   = "pstore.write.latency_full"
	MetricReadStragglers     = "pstore.read.stragglers"
	MetricReadHedges         = "pstore.read.hedges"
	MetricReadPassovers      = "pstore.read.passovers"
	MetricWriteStragglers    = "pstore.write.stragglers"
	MetricWriteConflicts     = "pstore.write.conflicts"
	MetricFanoutBlockingLegs = "pstore.fanout.blocking_legs"
	MetricReadRepairs        = "pstore.read.repairs"
	MetricRepairErrors       = "pstore.read.repair_errors"
	MetricRepairsDropped     = "pstore.read.repairs_dropped"
)

// Storage-engine metric names, recorded in each durable node's
// registry (see internal/pstore/storage). The appends/syncs ratio is
// the group-commit amortization factor; append_errors ticking means
// the node's disk refused durability and the node has stopped acking
// writes. The recovery.* series is written once, at startup:
// torn_tail counts expected crash artifacts (repaired silently),
// corrupt_records and bad_snapshots count real damage.
const (
	MetricWALAppends        = "pstore.wal.appends"
	MetricWALAppendErrors   = "pstore.wal.append_errors"
	MetricWALSyncs          = "pstore.wal.syncs"
	MetricWALBytes          = "pstore.wal.bytes"
	MetricWALSegments       = "pstore.wal.segments"
	MetricSnapshots         = "pstore.snapshot.count"
	MetricSnapshotErrors    = "pstore.snapshot.errors"
	MetricSegmentsTruncated = "pstore.snapshot.truncated_segments"
	MetricRecoveryReplayed  = "pstore.recovery.replayed"
	MetricRecoveryTornTail  = "pstore.recovery.torn_tail"
	MetricRecoveryCorrupt   = "pstore.recovery.corrupt_records"
	MetricRecoveryBadSnaps  = "pstore.recovery.bad_snapshots"
)

// Bounded-staleness read metric names, recorded in the registry of
// the pool the Client dials through. A bounded GET resolves exactly
// one of three ways: hit (served from one lease-holding replica with
// the bound proven), fallback (the bound could not be proven — no
// live freshness lease for the path, transport error, miss, or lease
// expiry mid-flight — so the read re-ran as a quorum), or violation
// (a lease holder answered a version below the one a quorum proved
// it held; the reply was discarded and the read re-ran as a quorum,
// so a violation never reaches the caller). The write clock's
// hybrid-logical-clock series (pstore.hlc.*) lives in internal/hlc;
// the client-side staleness series (pstore.staleness.*) in
// internal/pstore/staleness.
const (
	MetricBoundedHits      = "pstore.read.bounded_hits"
	MetricBoundedFallbacks = "pstore.read.bounded_fallbacks"
	MetricBoundedLatency   = "pstore.read.bounded_latency"
)
