// Package staleness is the client half of pstore's bounded-staleness
// read machinery: the proof.
//
// Leases (leases.go) carry it, and are the only thing that decides
// whether a bounded read may leave the quorum path. A quorum round pins
// which replicas held the newest committed version of a path as of the
// round's start; a single-replica read served from a holder within Δ of
// that instant is at most Δ stale, by quorum intersection, on this
// process's own clock — sound under arbitrary replica clock skew. Which
// holder a bounded read asks is the store client's replica order, the
// same one its quorum reads take.
package staleness

// Metric names for the client-side bounded-read path, recorded in the
// registry of the pool the pstore client dials through.
const (
	// MetricViolations counts bounded replies that contradicted their
	// freshness lease: the replica answered with a version below the
	// one a quorum proved it held, meaning it lost state. Each one was
	// discarded and re-run as a quorum read (never served) — the
	// counter must stay zero for the zero-violation guarantee, and any
	// tick drops the lease and has reads take the replica last.
	MetricViolations = "pstore.staleness.violations"
	// MetricShare is the gauge of a deleted bounded-read valve. Nothing
	// sets it; the benchmark module still reads it by name, as 0.
	MetricShare = "pstore.staleness.share"
)
