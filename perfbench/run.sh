#!/usr/bin/env bash
# Builds hullserver and the benchmark program from the checkout this script
# sits in, then runs the program with the given arguments. Everything the
# build and the runs leave behind goes under .bench_build/ at the checkout
# root.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hullserver" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/hullserver here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/hullserver" ./cmd/hullserver
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --root "$root" --server "$build/bin/hullserver" "$@"
