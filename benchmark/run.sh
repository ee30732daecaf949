#!/usr/bin/env bash
# BENCHMARK.json's command. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload solo-apply --seed 7 --seconds 25 --trace 0
#
# Builds ./benchmark into .bench_build/ and runs it with the arguments
# given. Everything the go command writes (build cache, temporary files,
# its per-user configuration and counters) is pointed into .bench_build/,
# so nothing is written outside the checkout. Any failure — no module to
# build from, a compile error, an oracle violation — is a non-zero exit.
set -euo pipefail

# Without the module there is no program to measure: refuse before the go
# command is started at all.
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod in $PWD: run from the root of a checkout" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=

# With telemetry in its default "local" mode and a fresh configuration
# directory, every go command forks a detached telemetry child that
# outlives it. GOTELEMETRY cannot be set through the environment; the
# mode file is the switch. With it off the go command starts nothing it
# does not wait for.
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
