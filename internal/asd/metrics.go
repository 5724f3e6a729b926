package asd

// Metric names recorded by the directory daemon, in addition to the
// shell's own daemon.* and wire.* instruments.
const (
	MetricRegistrations = "asd.registrations"
	MetricRenewals      = "asd.renewals"
	MetricExpirations   = "asd.expirations"
	MetricLookupLatency = "asd.lookup.latency"
)

// Metric names recorded only by a replicated (store-backed) directory
// daemon.
const (
	// MetricReplicaStoreReads counts quorum reads issued to the
	// backing persistent store.
	MetricReplicaStoreReads = "asd.replica.store_reads"
	// MetricReplicaStoreWrites counts quorum writes issued to the
	// backing persistent store.
	MetricReplicaStoreWrites = "asd.replica.store_writes"
	// MetricReplicaStoreErrors counts failed store operations.
	MetricReplicaStoreErrors = "asd.replica.store_errors"
	// MetricReplicaReadThroughs counts name lookups that missed in
	// memory and were answered from the store.
	MetricReplicaReadThroughs = "asd.replica.read_throughs"
	// MetricReplicaSyncRounds counts convergence passes against the
	// store keyspace.
	MetricReplicaSyncRounds = "asd.replica.sync_rounds"
	// MetricReplicaRenewSaves counts locally-lapsed leases rescued by
	// a sibling replica's renewal found in the store — each one is an
	// expiration that replication prevented.
	MetricReplicaRenewSaves = "asd.replica.renew_saves"
	// MetricReplicaRenewalsHeld counts renewals answered from memory
	// because the durable deadline already covered half the lease
	// asked for: each one is a quorum write not made.
	MetricReplicaRenewalsHeld = "asd.replica.renewals_held"
	// MetricReplicaEntries gauges the in-memory entry count after each
	// sync pass.
	MetricReplicaEntries = "asd.replica.entries"
)
