#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload jobs-warm --seed 1 --seconds 30 --trace 0
# Every build and run artifact stays inside .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its config and telemetry under $HOME; keep them here.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
