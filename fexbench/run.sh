#!/usr/bin/env bash
# Builds the fexbench harness from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash fexbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash fexbench/run.sh compare <base-dir> [<candidate-dir>]
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/fexbench"
mkdir -p "$out/tmp"
# The go command also keeps its configuration and telemetry counters under
# the user config directory; point that into the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/fexbench" && go build -o "$out/fexbench" .) >&2
exec "$out/fexbench" "$@"
