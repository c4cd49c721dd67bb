#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build leaves behind (Go build cache,
# temporary files, the binary, span traces) stays in .bench_build/ at the
# checkout root. Run from the checkout root:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# Everything builds from the checkout: no toolchain or module downloads.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS= CGO_ENABLED=0
# The benchmark pins two Ps; see perfbench/README.md.
export GOMAXPROCS=2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
