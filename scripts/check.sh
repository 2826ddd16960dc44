#!/usr/bin/env bash
# check.sh — the full verification gate: formatting, vet, build,
# project-specific static analysis (ndnlint), race-enabled tests, and
# the benchmark module's own vet and short tests.
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

echo "== ndnlint"
go run ./cmd/ndnlint ./...

echo "== go test -race"
go test -race ./...

# bench/ is its own module, so ./... above never descends into it: this
# is what catches an API change that breaks the benchmark.
echo "== bench module (vet + short tests)"
(cd bench && go vet ./... && go test -short ./...)

echo "check.sh: all gates passed"
