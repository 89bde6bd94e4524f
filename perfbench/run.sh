#!/usr/bin/env bash
# Builds the benchmark and claserve from this checkout's sources, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-dir --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
printf off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/claserve" cla/cmd/claserve) >&2
exec "$out/perfbench" --claserve "$out/claserve" --work "$out" "$@"
