#!/usr/bin/env bash
# Builds the mining server (cmd/reprod) and this benchmark from the
# checkout it is started in, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload cold-mine --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, temporary databases, span files) stays under .bench_build/
# (or $CARGO_TARGET_DIR when that is set).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user's config
# directory; keep them in the build directory too, and turn telemetry
# off: otherwise go starts a detached upload process that outlives the
# build (and this script, when the build fails).
export XDG_CONFIG_HOME="$out/config"
go telemetry off

go build -o "$out/reprod" ./cmd/reprod
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -reprod "$out/reprod" -out "$out" -root "$root" "$@"
