#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# started in, then runs it with the arguments given. The build cache lives
# there too, so a run reads and writes nothing outside the checkout; only
# the first run of a checkout pays for the build.
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "${BASH_SOURCE[0]}")" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
