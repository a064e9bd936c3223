#!/usr/bin/env bash
# Builds ssspd and the perfbench harness from this checkout, then runs
# the harness with the given arguments, for example:
#
#   bash perfbench/run.sh --workload road-hot --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), Go's build cache included.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$build/ssspd" ./cmd/ssspd) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" --ssspd "$build/ssspd" --workdir "$build/work" --repo "$root" "$@"
