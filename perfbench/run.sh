#!/usr/bin/env bash
# Builds the serving tier (cmd/train, cmd/serve, cmd/router) and the
# benchmark program from this checkout, then runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/train ./cmd/serve ./cmd/router
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
