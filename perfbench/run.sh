#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload gate-iir --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build cache, temporary files and the
# binary stay under .bench_build/ in that root; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
