#!/usr/bin/env bash
# The repository's gate, in one place: tier-1 (`go build ./... && go test
# ./...`) plus everything .github/workflows/ci.yml runs that tier-1 does
# not reach and that needs no download — formatting, the repo's own
# fedlint analyzers, the race detector over the server packages, the
# bench/ module's self-tests and short fuzzes of the binary frame
# reader, the record codec and the checkpoint reader. CI calls this
# script; staticcheck and govulncheck, which need
# the network, stay CI-only steps.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	printf 'gofmt needed on:\n%s\n' "$unformatted" >&2
	exit 1
fi

step "tier-1: go build ./... && go test ./..."
go build ./...
go test ./...

step "fedlint (go vet -vettool)"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/fedlint" ./cmd/fedlint
go vet -vettool="$bin/fedlint" ./...

step "race detector: session, transport, replica, wal"
go test -race ./internal/session/ ./internal/transport/... ./internal/replica/ ./internal/wal/

step "bench/ module self-tests"
go test -C bench ./...

step "FuzzBatchReader, 10 s"
go test -run '^$' -fuzz FuzzBatchReader -fuzztime 10s ./internal/transport/wire/

step "FuzzRecord, 10 s"
go test -run '^$' -fuzz FuzzRecord -fuzztime 10s ./internal/session/

step "FuzzCheckpoint, 10 s"
go test -run '^$' -fuzz FuzzCheckpoint -fuzztime 10s ./internal/transport/

printf '\nverify: ok\n'
