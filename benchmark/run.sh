#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the current directory
# (the root of a checkout) and runs it with the arguments given. Everything Go
# writes while building — cache, temporary files — stays in .bench_build/ too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/skybench" .
exec "$out/skybench" -dir "$out/tmp" "$@"
