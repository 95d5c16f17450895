#!/usr/bin/env bash
# Builds the capture-to-verdict benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash clapbench/run.sh --workload clap-replay --seed 1 --seconds 20 --trace 0
#
# Run it from a checkout of the repository. Every build and run artifact
# (Go build cache, binary, scratch files) stays under .bench_build/ in the
# checkout; nothing is read or written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "clapbench: $root holds no go.mod; run from a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local
go -C clapbench build -o "$out/clapbench" . >&2
exec "$out/clapbench" "$@"
