#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments go to the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload tree-halo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# working directory. The toolchain is used as installed (no downloads).
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomod" GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "${root}/perfbench" && go build -buildvcs=false -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
