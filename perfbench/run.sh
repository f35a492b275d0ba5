#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload detect --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache included, stay under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config GOCACHE=$out/gocache \
		GOMODCACHE=$out/gomod GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
