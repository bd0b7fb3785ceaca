#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --rate 10 --workload deep-proofs --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the toolchain's temporary files, the binary and all
# files the benchmark writes stay under .bench_build/ in the current
# directory. Nothing is downloaded: the benchmark imports only the standard
# library and the repository's own packages (perfbench/go.mod replaces
# module "repro" with "../").
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
