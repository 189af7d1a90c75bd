#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through (see main.go for the flags). The
# binary, the Go build cache, temporary files and the spans of traced runs
# stay inside the checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
