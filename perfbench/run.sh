#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one
# workload. Every file the build and the run write stays under
# .bench_build/ in the checkout root. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload coherency --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -commit "$commit" -workdir "$out" "$@"
