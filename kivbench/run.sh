#!/usr/bin/env bash
# Builds the kivbench benchmark from the surrounding checkout and runs it
# with the given arguments:
#
#   bash kivbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Every build product (the Go build
# cache, the binary, span dumps) stays under .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/kivbench" .) >&2
exec "$out/kivbench" -spans "$out/spans" "$@"
