#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sort-uniform --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lives under .bench_build/ at the checkout
# root, so the run reads and writes nothing outside the checkout.  The build
# fails (and the script exits non-zero without a result) when the library
# sources next to perfbench/ are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
