#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through:
#
#   bash bench/run.sh --workload estimator_cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under bench/.bench_build/,
# and the Go toolchain is kept offline.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
