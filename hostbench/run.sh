#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it from the
# repository root, passing every argument through (see README.md):
#
#	bash hostbench/run.sh --workload chaos --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache and the Go config directory all live
# under .bench_build/ in the checkout, so a run writes nowhere else.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/hostbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
cd "$root"
exec "$out/hostbench" "$@"
