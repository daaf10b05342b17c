#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs it
# with the given arguments, from the root of the tree:
#
#	bash _benchmark/run.sh --workload fig3-mnist-mlp --seed 1 --seconds 20 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ in that root, so
# a run reads and writes nothing outside the tree.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
(cd "$root/_benchmark" && go build -o "$build/machbench-e2e" .)
exec "$build/machbench-e2e" "$@"
