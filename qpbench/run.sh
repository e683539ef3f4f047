#!/usr/bin/env bash
# Builds the benchmark command (qpbench) and the qpld server from this
# checkout's sources, then runs qpbench with the given arguments:
#
#	bash qpbench/run.sh --workload fullchip --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout root (Go build cache, binaries, temporary files, server data
# directories). Outside a complete checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -C qpbench -o "$out/qpbench" . >&2
go build -o "$out/qpld" ./cmd/qpld >&2
exec "$out/qpbench" -root "$root" "$@"
