#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash qsbench/run.sh --workload pingpong --seed 1 --seconds 25 --trace 0
#
# Every build product and Go cache lands under .bench_build (or under
# $CARGO_TARGET_DIR when set), so a run reads and writes only inside the
# checkout. The build fails, and the script exits non-zero, when the
# simulator's sources are not beside the benchmark.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod XDG_CONFIG_HOME=$build/config
export GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/qsbench" && go build -o "$build/qsbench" .)
exec "$build/qsbench" "$@"
