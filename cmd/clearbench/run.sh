#!/usr/bin/env bash
# Builds clearbench from the enclosing checkout and runs it with the given
# flags. Run from the checkout root:
#
#   bash cmd/clearbench/run.sh --workload sweep-warm --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the benchmark's scratch
# campaign-cache directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/cmd/clearbench" && go build -o "$out/clearbench" .)
exec "$out/clearbench" -tmp "$out/tmp" "$@"
