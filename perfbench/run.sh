#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   sh perfbench/run.sh --workload tpcw-shopping --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the repository root.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; $root holds no go.mod and perfbench/go.mod" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=auto \
	go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
