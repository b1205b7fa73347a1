#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root; see perfbench/README.md.
#
#   bash perfbench/run.sh --workload mixed-rw --seed 1 --seconds 55 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
# Keep every Go cache and config write inside the checkout, and never
# reach for a toolchain or module download.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off \
	GOPATH="$build/gopath" GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
