#!/usr/bin/env bash
# Builds phloem-benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go toolchain
# writes (build cache, temporary files) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/phloem-benchmark" .) >&2
cd "$root"
exec "$out/phloem-benchmark" "$@"
