#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the root of
# the checkout. Every build artefact, cache and result file stays under
# .bench_build in the checkout. Arguments pass through to the benchmark:
#
#   bash e2ebench/run.sh --workload factor --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
