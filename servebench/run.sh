#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it.
# Run it from the repository root:
#
#   bash servebench/run.sh --workload dense-cold --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh --prepare --seed 1 --out servebench/truth
#
# The Go build cache, the binary, cached ground truth and trace files all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" -root "$root" -commit "$commit" "$@"
