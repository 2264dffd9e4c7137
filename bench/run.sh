#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload deep_heavy --seed 1986 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temp
# files, span files) stays under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gomodcache"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/banyanbench" .)
cd "$root"
exec "$out/banyanbench" "$@"
