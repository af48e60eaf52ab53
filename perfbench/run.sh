#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload olap --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache and work files, Go's
# own config and cache directories) stays under .bench_build in the
# checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
