#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload lockd-dijkstra --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays under
# .bench_build/ in the checkout, so the run reads and writes nothing outside
# it. Without the repository's sources next to perfbench/ the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
