package storage

import "ace/internal/telemetry"

// Metrics receives the engine's instrumentation. Every field may be
// nil — telemetry's instruments record nothing through a nil pointer,
// so the engine is usable without any instrumentation wired in.
type Metrics struct {
	// WAL write path.
	Appends      *telemetry.Counter // records durably appended
	AppendErrors *telemetry.Counter // appends refused or failed (write/sync error, closed log)
	Syncs        *telemetry.Counter // fsync batches (Appends/Syncs = group-commit amortization)

	// Snapshot cycle.
	Snapshots         *telemetry.Counter // compacted snapshots written
	SnapshotErrors    *telemetry.Counter // snapshot attempts that failed (log keeps the data)
	SegmentsTruncated *telemetry.Counter // sealed WAL segments deleted after a snapshot

	// Recovery.
	Replayed       *telemetry.Counter // WAL records replayed at open
	TornTails      *telemetry.Counter // torn final records truncated at open (expected crash artifact)
	CorruptRecords *telemetry.Counter // mid-log corrupt records found at open
	SnapshotsBad   *telemetry.Counter // snapshots that failed validation at open

	// Live log shape.
	WALBytes    *telemetry.Gauge // bytes across all live segments
	WALSegments *telemetry.Gauge // live segment files (incl. active)
}
