#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every file the build and the run write
# lands under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory. Outside a full checkout the build fails, so the script
# exits nonzero without printing a result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
(
	cd perfbench
	export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
		XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
		GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
	go build -o "$out/perfbench" .
)
export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
