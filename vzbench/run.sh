#!/usr/bin/env bash
# Builds vzserve and vzbench from this checkout, then execs vzbench so
# that no wrapper process stands between the caller and the servers it
# starts. Build caches and outputs stay inside
# the checkout, under .bench_build.
#
#   bash vzbench/run.sh --workload figures --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
cd "$root"
go build -o "$out/bin/vzserve" ./cmd/vzserve
(cd vzbench && go build -o "$out/bin/vzbench" .)
exec "$out/bin/vzbench" -server "$out/bin/vzserve" -work "$out/work" "$@"
