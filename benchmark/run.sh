#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root with the given arguments. The Go build cache, module
# path and config directory are all pointed inside .bench_build/, so the
# build writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local \
	go build -C benchmark -o "$build/vxabench" .
exec "$build/vxabench" "$@"
