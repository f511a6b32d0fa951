#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Build outputs and the Go build cache stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$bench" && go build -o "$out/farmbench" .)
exec "$out/farmbench" "$@"
