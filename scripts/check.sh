#!/usr/bin/env bash
# check.sh — the full verification gate: formatting, vet, build (and a
# cross-build of what is platform-specific), project-specific static
# analysis (ndnlint), race-enabled tests, and the benchmark module's own
# vet and short tests.
# CI runs exactly this script; run it locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# rt sleeps on a timerfd on Linux and on a time.Timer elsewhere; nothing
# else builds the second file. Both cross-builds work offline from GOROOT.
echo "== cross-build (darwin, windows)"
GOOS=darwin go build ./...
GOOS=windows go build ./internal/rt

echo "== ndnlint"
go run ./cmd/ndnlint ./...

echo "== go test -race"
go test -race ./...

# The benchmark pins ndnd to one CPU, and the executor's wake-up path
# (alarm, reader goroutine, yield) and each face's writer hand-off
# behave differently with one P than with two: run the wall-clock
# packages at both.
echo "== go test -race -count=3 -cpu 1,2 (wall-clock path)"
go test -race -count=3 -cpu 1,2 ./internal/rt ./internal/netface ./internal/daemon ./cmd/ndnd

# bench/ is its own module, so ./... above never descends into it: this
# is what catches an API change that breaks the benchmark.
echo "== bench module (vet + short tests)"
(cd bench && go vet ./... && go test -short ./...)

echo "check.sh: all gates passed"
