#!/usr/bin/env bash
# Builds gompaxd and the perfbench command from the sources of the
# checkout it is run in, then runs perfbench with the given arguments.
# Run it from the root of a gompax checkout:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gompaxd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a gompax checkout (go.mod, cmd/gompaxd and perfbench/ are needed)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/gompaxd" ./cmd/gompaxd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -gompaxd "$out/bin/gompaxd" -work "$out" "$@"
