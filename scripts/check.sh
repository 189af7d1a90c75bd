#!/bin/sh
# One-shot verification gate: formatting, module hygiene, build, vet with an
# explicit check list, the project's own static analysis (spiderlint), the
# full test suite, the perfbench module's vet and tests, and the
# race-sensitive subset under -race. Everything CI
# (and a careful human) runs before trusting a tree, in dependency order —
# cheap, syntactic gates first, so failures surface fast.
#
#   scripts/check.sh          # full gate
#   SKIP_RACE=1 scripts/check.sh  # skip the -race subset (slowest stage)
#   RACE_FULL=1 scripts/check.sh  # run the ENTIRE suite under -race, not
#                                 # just the concurrency-sensitive subset
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go mod tidy -diff"
go mod tidy -diff

echo "== go build"
go build ./...

# Explicit vet list: the default set plus the concurrency- and
# cancellation-sensitive analyzers this codebase leans on. Spelled out so a
# toolchain default changing under us never silently drops a check.
echo "== go vet"
go vet \
    -atomic -bools -buildtag -copylocks -errorsas -loopclosure \
    -lostcancel -nilfunc -printf -stdmethods -unreachable -unusedresult \
    ./...

echo "== spiderlint"
go run ./cmd/spiderlint ./...

echo "== go test"
go test ./...

# perfbench is a nested module, so ./... above never compiles it. It builds
# against this module's internal packages (cluster.NodeOptions, trainer
# hooks, ...); vet and test it here so an API change that breaks the
# benchmark fails the gate instead of the next benchmark run.
echo "== perfbench vet + test"
(cd perfbench && go vet . && go test .)

# The arena store's whole claim is GC-free reads: a single allocation per
# GET would silently reintroduce the per-op garbage the design exists to
# eliminate, and nothing else in the suite would notice. Gate on the
# benchmark's own -benchmem accounting.
echo "== arena alloc regression (GET must be 0 allocs/op)"
alloc_out="$(go test -run '^$' -bench 'BenchmarkStoreGet/mode=arena' \
    -benchtime 1000x -benchmem ./internal/kvserver/)"
echo "$alloc_out"
echo "$alloc_out" | awk '
    /BenchmarkStoreGet\/mode=arena/ && / allocs\/op/ {
        if ($(NF-1)+0 != 0) { print "arena GET allocates: " $0 > "/dev/stderr"; bad = 1 }
    }
    END { exit bad }'

if [ "${RACE_FULL:-0}" = "1" ]; then
    # Opt-in: every package under the race detector, not just the curated
    # subset. Slow (the lint framework re-type-checks the module per test),
    # so it is a deliberate pre-release gate rather than the default.
    echo "== go test -race ./... (RACE_FULL)"
    go test -race ./...
elif [ "${SKIP_RACE:-0}" != "1" ]; then
    echo "== go test -race (concurrency-sensitive subset)"
    go test -race \
        ./internal/telemetry/... ./internal/kvserver/... ./internal/epoch/... \
        ./internal/cache/... \
        ./internal/hnsw/... ./internal/semgraph/... ./internal/trainer/... \
        ./internal/par/... ./internal/leakcheck/... \
        ./internal/faultnet/... ./internal/cluster/... \
        ./cmd/spiderload/
fi

echo "check.sh: all gates passed"
