#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the repository root. The build, and the go tool's cache and
# scratch files, stay in $CARGO_TARGET_DIR (default .bench_build) under
# the root, so a run writes nothing outside the checkout.
#
#   bash bench/run.sh --workload grid-local --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
