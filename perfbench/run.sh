#!/usr/bin/env bash
# Builds auditd and the benchmark program from this checkout, then runs
# one benchmark workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload durable-ingest --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOCACHE="$out/gocache" \
	GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/auditd" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/auditd not found)" >&2
	exit 2
fi
mkdir -p "$out"
go build -o "$out/auditd" ./cmd/auditd >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -auditd "$out/auditd" -work "$out/work" "$@"
