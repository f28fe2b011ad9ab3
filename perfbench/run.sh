#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the repository root. Without the
# repository's sources next to perfbench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed (run from the repository root, with the repository's sources present)" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
