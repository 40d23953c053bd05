#!/usr/bin/env bash
# Builds leakbound's experiments and leakaged binaries and the leakbench
# harness from source, then runs the harness; every argument passes
# through (for example --workload serve --seed 3 --seconds 25 --trace 0).
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, and the harness's scratch
# files and traces. No network is used.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

cd "$root"
go build -o "$out/bin/" ./cmd/experiments ./cmd/leakaged
(cd benchmark && go build -o "$out/bin/leakbench" ./leakbench)
exec "$out/bin/leakbench" -root "$root" -bin "$out/bin" "$@"
