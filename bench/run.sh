#!/usr/bin/env bash
# The one command of the ACE benchmark: build it from source, then run
# it. Run from the repository root:
#
#   bash bench/run.sh --workload call --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh                       # every workload, both modes
#   bash bench/run.sh -compare a.json b.json
#   bash bench/run.sh test                  # go vet and the benchmark's own tests
#
# Everything the build and the run write stays inside the checkout:
# the Go caches and the binary under .bench_build/, traces and scratch
# state under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The go command's own settings and counters live under the user's
# configuration directory; keep that inside the checkout as well.
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

cd "$here"
if [ "${1:-}" = test ]; then
	shift
	go vet .
	exec go test -count=1 "$@" .
fi
go build -o "$build/acebench" .
cd "$root"
exec "$build/acebench" "$@"
