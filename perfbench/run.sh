#!/usr/bin/env bash
# Builds the benchmark and the sympled worker binary from the checkout in
# the current directory, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache, span
# dumps and full results all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sympled" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/sympled and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off

# The worker binary sits next to the benchmark binary, where the cluster
# workload looks for it first.
go build -o "$build/bin/sympled" ./cmd/sympled
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --out "$build/perfbench" "$@"
