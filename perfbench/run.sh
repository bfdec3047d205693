#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, the Go build cache and
# the traced run's span files go under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout. A failed
# build exits non-zero without printing a result.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=-buildvcs=false
# git describe, for the result stamp, looks no higher than the checkout.
export GIT_CEILING_DIRECTORIES=${root%/*}

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

export PERFBENCH_COMMAND="bash perfbench/run.sh $*"
export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
