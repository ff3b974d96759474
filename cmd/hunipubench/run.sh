#!/usr/bin/env bash
# Builds hunipubench from source and runs it from the repository root,
# keeping the Go build cache and every temporary file under .bench_build.
# Usage: bash cmd/hunipubench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1]
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/cmd/hunipubench" && go build -o "$out/hunipubench" .)
exec "$out/hunipubench" "$@"
