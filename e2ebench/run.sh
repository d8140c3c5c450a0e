#!/usr/bin/env bash
# Builds rticd and the load generator from the checkout this script sits
# in, then runs one benchmark workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload dense_violations --seed 1 --seconds 45 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" # go env and telemetry files
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
# With telemetry on, any go command may start a detached sidecar process
# that outlives this script; "go telemetry off" itself starts none.
# Toolchains older than Go 1.23 have neither the command nor the sidecar.
go telemetry off 2>/dev/null || true

go build -o "$out/bin/rticd" ./cmd/rticd >&2
go -C e2ebench build -o "$out/bin/e2ebench" . >&2
exec "$out/bin/e2ebench" -rticd "$out/bin/rticd" -workdir "$out/runs" "$@"
