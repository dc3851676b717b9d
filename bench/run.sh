#!/usr/bin/env bash
# The one command: builds the benchmark and ./cmd/fednumd from source
# inside the checkout, then runs the benchmark with the given arguments.
# Everything the build and the run write stays under bench/.build/ and
# bench/out/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fednumd" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench: run from the root of a full checkout (go.mod, cmd/fednumd, bench/)" >&2
	exit 2
fi
build="$root/bench/.build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the toolchain's caches, temp files and telemetry inside the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/fedperf" .
go build -o "$build/bin/fednumd" ./cmd/fednumd
exec "$build/bin/fedperf" -fednumd "$build/bin/fednumd" "$@"
