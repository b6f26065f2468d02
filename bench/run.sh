#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload heavy --seed 1 --seconds 10 --trace 0
#
# The build cache, Go's own state and the binary stay under .bench_build at
# the repository root; module downloads are off (the module has no
# dependencies outside this repository).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/kdbench" .)
exec "$out/kdbench" "$@"
