#!/usr/bin/env bash
# Builds ggcc, ggcd and the benchmark program from source into .bench_build/
# and runs the benchmark. Run it from the repository root:
#
#	bash ggbench/run.sh --workload compile-mix --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/ggbench/go.mod" || ! -d "$root/cmd/ggcc" ]]; then
	echo "ggbench: run from the root of a ggcg checkout (go.mod, cmd/ggcc and ggbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$build/bin"

go build -o "$build/bin/" ./cmd/ggcc ./cmd/ggcd >&2
(cd "$root/ggbench" && go build -o "$build/bin/ggbench" .) >&2

exec "$build/bin/ggbench" -root "$root" -bin "$build/bin" -work "$build/work" "$@"
