#!/usr/bin/env bash
# Builds the programs under test (astragen, astrareport, astrad) and the
# perfbench program from the checkout, then runs perfbench with the given
# arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload live --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build/bin"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/astrad" ]; then
	echo "perfbench: $root is not a checkout of the repository" >&2
	exit 2
fi
go build -o "$build/bin/" ./cmd/astragen ./cmd/astrareport ./cmd/astrad >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
