#!/usr/bin/env bash
# Builds the job benchmark from the checkout it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash jobbench/run.sh --workload suite-batch --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build in
# the checkout: the Go build cache, temporary files, the binary, the
# per-run state directories and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/jobbench" && go build -o "$out/jobbench" .)
exec "$out/jobbench" "$@"
