# Convenience targets for the ACE reproduction. Everything is stdlib
# Go; no external tools are required.

GO ?= go

.PHONY: all check build test race test-race chaos test-bench stability short bench bench-pstore bench-flow profile-call profile-store bench-once examples fuzz fmt fmt-check vet lint lint-docs loc clean

all: build vet test

# The full pre-merge gate: build, formatting, vet, the ACE-specific
# analyzers, plain tests, race-enabled tests, the deterministic chaos
# suite, the benchmark module's own vet and tests, every testing.B run
# once, and the repeat-run stability step.
check: build fmt-check vet lint test test-race chaos test-bench bench-once stability

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ACE-specific static analysis (docs/LINT.md): three intraprocedural
# checks (context propagation, locks held across blocking I/O,
# discarded transport errors) plus three built on the package-set-wide
# call graph (wire-protocol verb conformance, deadline propagation,
# metric naming).
lint:
	$(GO) run ./cmd/acelint ./...

# Regenerate the machine-checked documentation from the extracted
# registries: the metric table in docs/METRICS.md (rewritten whole)
# and the verb table spliced between its markers in docs/PROTOCOL.md.
# CI fails when either file is stale.
lint-docs:
	$(GO) run ./cmd/acelint -metrics-doc docs/METRICS.md ./...
	$(GO) run ./cmd/acelint -verbs-doc docs/PROTOCOL.md ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

test-race: race

# Deterministic fault-injection suite: proxies, partitions, corrupted
# frames, and the chaos integration tests. Fixed seeds inside the
# tests make any failure reproducible run-to-run.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/

# bench/ is a module of its own (ace/bench), which `go test ./...` at
# the root does not reach: this is where an API removal that breaks
# the benchmark shows up before the benchmark driver finds it.
test-bench:
	bash bench/run.sh test

# Tests that once failed a share of their runs, repeated so a relapse
# cannot hide behind one lucky pass, and the ones whose verdict rests on
# how racing goroutines happened to interleave, under the race
# detector: the daemon's serial section against concurrent connections,
# the racing-writers test, the recorded-history checker, the read hedged
# around a stalled replica, the bounded read that skips it, and the
# snapshot check a write's ack makes while a compaction runs.
stability:
	$(GO) test -count=20 -run 'TestDistributedTraceAcrossDaemons' .
	$(GO) test -count=10 -run 'TestChaosBoundedReadFailsSafe' ./internal/chaos/
	$(GO) test -count=1000 -run 'TestHandlerErrorBecomesFail' ./internal/daemon/
	$(GO) test -count=200 -run 'TestReplicaSiblingEvictionViaNotification' ./internal/asd/
	$(GO) test -count=200 -run 'TestChaosPstoreQuorumFailsClosedWithoutMajority' ./internal/chaos/
	$(GO) test -count=200 -run 'TestGetAnyHitAndMiss' ./internal/pstore/
	$(GO) test -race -count=50 -run 'TestSerialSection' ./internal/daemon/
	$(GO) test -race -count=20 -run 'TestRacingPutsGetDistinctVersions|TestHistoryVersionedRegister' ./internal/pstore/
	$(GO) test -race -count=50 -run 'TestStalledReplicaIsHedgedAroundAndPassedOver' ./internal/pstore/
	$(GO) test -race -count=50 -run 'TestBoundedReadSkipsPassedOverHolder' ./internal/pstore/
	$(GO) test -race -count=50 -run 'TestShouldSnapshotDoesNotWaitForSnapshot' ./internal/pstore/storage/

short:
	$(GO) test -short ./...

# The testing.B benchmarks: one per paper experiment (E3–E15) in the
# root bench_test.go, the ablations, and each package's own. Each
# experiment's shape is a test in the package that owns it; these
# report its numbers.
bench:
	$(GO) test -bench=. -benchmem ./...

# Every testing.B above, one iteration each and no tests: nothing
# runs the benchmarks otherwise, so this is where one that no longer
# builds or fails on its first iteration shows up.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Measure quorum read/write latency against a healthy 3-way cluster
# and against the same cluster with one replica blackholed or dead,
# recording the comparison in BENCH_pstore.json. Fails if a degraded
# operation exceeds half the call timeout — i.e. if the slowest
# replica is back to setting client-visible latency — or a degraded
# Get exceeds twice the healthy one. Also measures a
# fully durable cluster (every ack costs an fsync) plus single-node
# recovery time, and fails if group commit stops amortizing fsyncs
# across concurrent writers. The sharding half drives a keyed zipfian
# storm against nodes whose capacity is pinned by cost (a data limit of
# 1 and a 2 ms fsync) and fails unless 4 replica groups deliver ≥2.5x
# the 1-group put throughput with sharded get latency within 10% of a
# plain single-group client.
# The two halves run in separate processes: the quorum half leaves a
# large heap behind, and the sharding half's 10% latency budget is
# tighter than the GC noise that heap causes. The sharding half merges
# its section into the JSON the quorum half wrote.
bench-pstore:
	ACE_BENCH_PSTORE=1 ACE_BENCH_PSTORE_OUT=$(CURDIR)/BENCH_pstore.json \
		$(GO) test -run 'TestBenchPstoreQuorum$$' -count=1 -v ./internal/pstore/
	ACE_BENCH_PSTORE=1 ACE_BENCH_PSTORE_OUT=$(CURDIR)/BENCH_pstore.json \
		$(GO) test -run 'TestBenchPstoreSharding$$' -count=1 -v ./internal/pstore/

# Offer a daemon whose capacity is pinned by a 5 ms command cost
# 1x/2x/4x that capacity and record goodput, shed counts, and p99
# admitted latency in BENCH_flow.json.
# Fails if goodput at 4x drops below 70% of the 1x baseline — i.e. if
# overload degrades the work the daemon admits (congestion collapse).
bench-flow:
	ACE_BENCH_FLOW=1 ACE_BENCH_FLOW_OUT=$(CURDIR)/BENCH_flow.json \
		$(GO) test -run 'TestBenchFlow$$' -count=1 -v .

# Where a plain call's time and allocations go (ROADMAP item 1a): the
# ACE half of BenchmarkE2CmdVsRMI, client and daemon shell in one
# process over loopback, under the CPU and the allocation profiler, and
# the top of each. The test binary and both profiles stay under
# .bench_build/ for `go tool pprof -list`.
profile-call:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkE2CmdVsRMI/ace' -benchtime 300000x -benchmem \
		-o .bench_build/call.test -cpuprofile .bench_build/call.cpu.prof -memprofile .bench_build/call.mem.prof .
	$(GO) tool pprof -top -nodecount 10 .bench_build/call.test .bench_build/call.cpu.prof
	$(GO) tool pprof -top -nodecount 10 -sample_index alloc_objects .bench_build/call.test .bench_build/call.mem.prof

# Where a store operation's time and allocations go: BenchmarkStoreOp,
# one client's quorum PUT and GET against three durable nodes in one
# process whose filesystem answers a flush at once, as the benchmark's
# store workloads run them, under the CPU and the allocation profiler,
# and the top of each. The test binary and both profiles stay under
# .bench_build/ for `go tool pprof -list`.
profile-store:
	mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkStoreOp' -benchtime 20000x -benchmem \
		-o .bench_build/store.test -cpuprofile .bench_build/store.cpu.prof -memprofile .bench_build/store.mem.prof ./internal/pstore/
	$(GO) tool pprof -top -nodecount 10 .bench_build/store.test .bench_build/store.cpu.prof
	$(GO) tool pprof -top -nodecount 10 -sample_index alloc_objects .bench_build/store.test .bench_build/store.mem.prof

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/conference
	$(GO) run ./examples/audiopipeline
	$(GO) run ./examples/robustapp
	$(GO) run ./examples/futurework

# Brief fuzzing of the wire-facing parsers (one command, and a stream
# of them) and framing decoders, of the two documents read back from
# the store and the directory, and of the storage engine's WAL record
# and snapshot decoders and its torn-tail/corruption classifier.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/cmdlang/
	$(GO) test -run '^$$' -fuzz=FuzzParsePrefix$$ -fuzztime=$(FUZZTIME) ./internal/cmdlang/
	$(GO) test -run '^$$' -fuzz=FuzzSplitPayload$$ -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz=FuzzReadFrame$$ -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz=FuzzParseAssertion -fuzztime=$(FUZZTIME) ./internal/keynote/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeEntry$$ -fuzztime=$(FUZZTIME) ./internal/asd/
	$(GO) test -run '^$$' -fuzz=FuzzDecodeMap$$ -fuzztime=$(FUZZTIME) ./internal/pstore/placement/
	$(GO) test -run '^$$' -fuzz=FuzzReadRecord$$ -fuzztime=$(FUZZTIME) ./internal/pstore/storage/
	$(GO) test -run '^$$' -fuzz=FuzzLoadSnapshot$$ -fuzztime=$(FUZZTIME) ./internal/pstore/storage/
	$(GO) test -run '^$$' -fuzz=FuzzReplaySegment$$ -fuzztime=$(FUZZTIME) ./internal/pstore/storage/

fmt:
	gofmt -w .

# Fails, naming them, when any Go file is not as gofmt writes it.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "not gofmt-formatted (run make fmt):"; echo "$$files"; exit 1; fi

# The one size figure simplicity changes report: lines of Go that ship,
# leaving out tests, analyzer testdata and the benchmark module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

clean:
	$(GO) clean -testcache
