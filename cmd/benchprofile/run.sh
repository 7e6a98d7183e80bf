#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash cmd/benchprofile/run.sh --workload spider-dev --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's own config and telemetry) stays under .bench_build/ in
# the checkout. The build needs the module at the checkout root
# (cmd/benchprofile/go.mod replaces it with ../..), so the script fails
# when run outside a full checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/cmd/benchprofile" && go build -buildvcs=false -o "$out/benchprofile" .)
exec "$out/benchprofile" "$@"
