#!/usr/bin/env bash
# Builds the Waldo benchmark from this checkout's sources and runs it.
#
#   bash waldobench/run.sh --workload ingest|fleet|wsd_scan --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache, WAL
# data directories and span dumps all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/waldobench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/waldobench" && go build -o "$out/waldobench" .)
exec "$out/waldobench" "$@"
