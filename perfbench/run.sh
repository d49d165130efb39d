#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload integrate --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ in the
# checkout. The benchmark module resolves the repository module through
# a relative replace directive, so a copy of perfbench/ without the rest
# of the repository fails to build and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
