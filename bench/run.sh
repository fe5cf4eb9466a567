#!/usr/bin/env bash
# Builds the raidsim benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload paper-fig5 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -reps 5          # every workload, 5 reps -> bench/out/result.json
#   bash bench/run.sh -trace 1         # traced run -> bench/out/{trace,layers}.json
#
# The build and Go's caches stay inside the checkout, under .bench_build,
# so a run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd bench && go build -o "$build/raidbench" .)
exec "$build/raidbench" "$@"
