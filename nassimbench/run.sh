#!/usr/bin/env bash
# Builds the nassim CLI and the benchmark from source inside the checkout,
# then runs one workload:
#
#   bash nassimbench/run.sh --workload <onboard_paper|serve_hot|serve_miss> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nassim" ]]; then
	echo "nassimbench: no nassim module at $root; run from the root of a checkout" >&2
	exit 1
fi

out="$root/.bench_build/nassimbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/gotmp" "$out/config/go/telemetry" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
# A fresh config directory puts Go telemetry in "local" mode, where every
# go command may fork a detached sidecar that outlives the build. Turn it
# off so the build leaves no process behind.
printf 'off\n' >"$out/config/go/telemetry/mode"

cd "$root/nassimbench"
go build -o "$out/nassim" nassim/cmd/nassim
go build -o "$out/nassimbench" .
exec "$out/nassimbench" -nassim "$out/nassim" -work "$out/work" "$@"
