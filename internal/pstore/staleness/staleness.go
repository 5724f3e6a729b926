// Package staleness is the client half of pstore's bounded-staleness
// read machinery: a proof and a valve.
//
//   - Leases (leases.go) carry the proof, and are the only thing that
//     decides whether a bounded read may leave the quorum path. A
//     quorum round pins which replicas held the newest committed
//     version of a path as of the round's start; a single-replica
//     read served from a holder within Δ of that instant is at most Δ
//     stale, by quorum intersection, on this process's own clock —
//     sound under arbitrary replica clock skew.
//   - An AIMD Controller (controller.go) decides how much lease-proven
//     read traffic actually leaves the quorum path, narrowing sharply
//     on any sign of trouble.
package staleness

// Metric names for the client-side bounded-read valve, recorded in the
// registry of the pool the pstore client dials through.
const (
	// MetricViolations counts bounded replies that contradicted their
	// freshness lease: the replica answered with a version below the
	// one a quorum proved it held, meaning it lost state. Each one was
	// discarded and re-run as a quorum read (never served) — the
	// counter must stay zero for the zero-violation guarantee, and any
	// tick multiplicatively narrows the controller and drops the lease.
	MetricViolations = "pstore.staleness.violations"
	// MetricShare is the AIMD controller's current bounded-read share,
	// in thousandths (1000 = every eligible read may go bounded).
	MetricShare = "pstore.staleness.share"
)
