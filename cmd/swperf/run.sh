#!/usr/bin/env bash
# Builds swperf from the sources of this checkout and runs it with the
# given flags, from the root of the checkout:
#
#   bash cmd/swperf/run.sh --workload fasta_swar --seed 7 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache,
# temporary files, the binary) and the shard index index_swar builds
# stay under .swperf/ in the checkout. The toolchain's telemetry is off
# there, so no background upload process is started.
set -euo pipefail

work="$PWD/.swperf"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
if [ ! -f "$XDG_CONFIG_HOME/go/telemetry/mode" ]; then
	go telemetry off
fi
go -C cmd/swperf build -o "$work/swperf" .
exec "$work/swperf" "$@"
