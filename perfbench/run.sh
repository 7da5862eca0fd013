#!/usr/bin/env bash
# Builds innetcc and the perfbench program from the checkout that holds this
# script, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Every build output, Go cache and temporary file stays under .bench_build
# at the checkout root. The module proxy is off, so nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/innetcc || ! -d internal ]]; then
	echo "perfbench: $root holds no innetcc source tree to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off GOFLAGS=
go build -o "$out/innetcc" ./cmd/innetcc
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
