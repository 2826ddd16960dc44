#!/usr/bin/env bash
# Builds the benchmark into bench/out and runs it with the arguments
# given. The Go build cache, module cache, configuration (where the go
# command keeps its telemetry counters) and temporary files all live
# under bench/out, so a run reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/gocache out/tmp out/config out/gopath
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" XDG_CONFIG_HOME="$PWD/out/config" GOPATH="$PWD/out/gopath"
export GOFLAGS= GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
