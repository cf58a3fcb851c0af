#!/usr/bin/env bash
# Builds dard and darc from the checkout this runs in, and the benchmark
# program beside them, then runs that program with the given arguments:
#
#   bash perfbench/run.sh --workload bulk_ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write stays under .bench_build/ in that root; Go's module proxy is
# never contacted.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dard" || ! -d "$root/cmd/darc" ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/dard or cmd/darc here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off

go build -o "$out/bin/" ./cmd/dard ./cmd/darc
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
