#!/usr/bin/env bash
# The repository's gate, in one place. .github/workflows/ci.yml runs
# `scripts/verify.sh --long` and, beside it, only what needs a download
# or a private GOCACHE (staticcheck, govulncheck, the lock-graph and
# engine-summary artifacts).
#
#   bash scripts/verify.sh          # the quick offline gate
#   bash scripts/verify.sh --long   # plus what CI adds to it
#
# The quick gate: gofmt, tier-1 (`go build ./... && go test ./...`),
# `go vet` with the standard analyzers and again with the repo's own
# fedlint analyzers, the bench/ module's self-tests and 10 s fuzzes of
# the binary frame reader, the record codec, the checkpoint reader and
# the WAL segment reader.
#
# --long adds every test twice under the race detector, one iteration
# of every benchmark function, and the results step: every figure is
# regenerated and compared byte for byte with results/, so a change
# that moves a figure fails here until results/ is regenerated with it
# (EXPERIMENTS.md, "Declared figure changes").
set -euo pipefail
cd "$(dirname "$0")/.."

long=0
case "${1-}" in
"") ;;
--long) long=1 ;;
*)
	echo "usage: scripts/verify.sh [--long]" >&2
	exit 2
	;;
esac

step() { printf '\n== %s\n' "$*"; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	printf 'gofmt needed on:\n%s\n' "$unformatted" >&2
	exit 1
fi

step "tier-1: go build ./... && go test ./..."
go build ./...
go test ./...

step "go vet"
go vet ./...

step "fedlint (go vet -vettool)"
go build -o "$tmp/fedlint" ./cmd/fedlint
go vet -vettool="$tmp/fedlint" ./...

step "bench/ module self-tests"
go test -C bench ./...

# fuzz TARGET PKG fuzzes one target for 10 s and prints its final exec
# count, so a stalled step shows in the log. Minimizing a new input is
# bounded at 1 s: at Go's default of 60 s, one minimization can take the
# rest of the step's budget.
fuzz() {
	step "$1, 10 s"
	go test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 1s "$2" 2>&1 | tee "$tmp/fuzz.log"
	echo "$1: final $(grep -o 'execs: [0-9]*' "$tmp/fuzz.log" | tail -1)"
}
fuzz FuzzBatchReader ./internal/transport/wire/
fuzz FuzzRecord ./internal/session/
fuzz FuzzCheckpoint ./internal/transport/
fuzz FuzzSegment ./internal/wal/

if [ "$long" = 1 ]; then
	step "race detector, every test twice"
	go test -race -count=2 ./...

	step "every benchmark function, one iteration"
	go test -run '^$' -bench . -benchtime 1x ./...

	step "results/: regenerate every figure and compare byte for byte"
	go build -o "$tmp/fedbench" ./cmd/fedbench
	mkdir "$tmp/results"
	"$tmp/fedbench" -all -csv "$tmp/results" >"$tmp/results/fedbench_full.txt"
	moved=0
	for name in $( (ls -A results && ls -A "$tmp/results") | sort -u); do
		case $name in
		fig*.csv) what="figure $(basename "${name#fig}" .csv)" ;;
		*) what=$name ;;
		esac
		if [ ! -e "results/$name" ]; then
			echo "results: $what: the fresh run writes $name, results/ has no such file" >&2
		elif [ ! -e "$tmp/results/$name" ]; then
			echo "results: $what: results/$name is committed, the fresh run does not write it" >&2
		elif ! cmp -s "results/$name" "$tmp/results/$name"; then
			echo "results: $what moved: results/$name differs from the fresh run" >&2
		else
			continue
		fi
		moved=1
	done
	if [ "$moved" = 1 ]; then
		echo "results: regenerate results/ and explain each moved cell in EXPERIMENTS.md" >&2
		exit 1
	fi
fi

printf '\nverify: ok\n'
