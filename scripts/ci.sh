#!/usr/bin/env bash
# ci.sh — the repository's check pipeline.
#
#   scripts/ci.sh          format check, vet, kdlint, the bench module's
#                          vet/test/kdlint, build, arm64/386/darwin
#                          cross-builds, full tests, a
#                          tree-wide -race pass, parser fuzz smokes, the
#                          hot-path escape gate, quick-mode smoke runs of
#                          every bench grid and four ablations (exercising
#                          every store and the superstep engine end to
#                          end), and the perf ratchet over every tracked
#                          BENCH_<grid>.json
#   scripts/ci.sh bench    refresh the tracked benchmark grids, one
#                          BENCH_<grid>.json per grid (kd, scale, serve,
#                          approx, faults)
set -euo pipefail
cd "$(dirname "$0")/.."

grids="kd scale serve approx faults"

if [ "${1:-}" = "bench" ]; then
    for g in $grids; do
        echo "==> refreshing BENCH_$g.json"
        go run ./cmd/bench -grid "$g"
    done
    exit 0
fi

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> kdlint (determinism / hot-path / layering / seedflow analyzers)"
# The suite is deny-by-default: the layering analyzer subsumes the import
# greps this script used to carry, detrand+seedflow prove the replay
# contract, and hotpath rejects alloc-risk constructs in //kd:hotpath
# kernels. Zero unsuppressed diagnostics is the bar.
go run ./cmd/kdlint ./...

echo "==> bench module: vet, test, kdlint (the nested repro/bench module)"
# bench/ is its own Go module, so the ./... patterns above never reach it;
# an internal API change that breaks the benchmark build fails here.
(cd bench && go vet ./... && go test ./... && go run repro/cmd/kdlint ./...)

echo "==> go build ./..."
go build ./...

echo "==> cross-compile: arm64, 386, darwin (assembly and build-tagged fallbacks)"
# The next-round prefetch is assembly on amd64 and arm64 with a Go no-op on
# every other port, and the huge-page advice is Linux-only with a no-op
# elsewhere: build each variant so none of them rots, and vet the arm64
# build so asmdecl checks its assembly the way the host vet above checks
# amd64's.
GOARCH=arm64 go build ./...
GOARCH=386 go build ./...
GOOS=darwin go build ./...
GOARCH=arm64 go vet ./internal/core/

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> sharded engine smoke: GOMAXPROCS 1 and 4 (bit-identity is host-independent)"
# The sharded superstep engine must produce identical results whether its
# workers multiplex one core or spread over several; the -race pass above
# already runs at the host's default, so this leg pins both extremes.
GOMAXPROCS=1 go test -run 'TestSharded|TestStaleBatch|TestShardsPublicSurface' ./internal/core/ .
GOMAXPROCS=4 go test -race -run 'TestSharded|TestStaleBatch|TestShardsPublicSurface' ./internal/core/ .

echo "==> fuzz smoke: spec parsers (10s per target)"
# Short deterministic-budget runs of the native fuzz targets over every
# string-spec parser (policy, store, churn, weights, faults). Longer
# sessions:
#   go test -fuzz '^FuzzParseChurn$' -fuzztime 5m .
for target in FuzzParsePolicy FuzzParseStore FuzzParseChurn FuzzParseWeights FuzzParseFaults; do
    go test -run "^${target}$" -fuzz "^${target}$" -fuzztime=10s .
done

echo "==> escapecheck: compiler escape verdicts over //kd:hotpath functions"
scripts/escapecheck.sh

echo "==> bench smoke: every grid (-quick, stdout only)"
for g in $grids; do
    go run ./cmd/bench -quick -grid "$g" -out ''
done

echo "==> bench smoke: ablations (-block 1 and 7, -shards 3, the scale grid on the nibble store)"
go run ./cmd/bench -quick -block 1 -out ''
go run ./cmd/bench -quick -block 7 -out ''
go run ./cmd/bench -quick -shards 3 -out ''
go run ./cmd/bench -quick -grid scale -store nibble -out ''

echo "==> faults smoke: degraded round + serving runs via kdsim (deterministic fault layer)"
go run ./cmd/kdsim -n 4096 -k 2 -d 8 -runs 2 -faults fail:0.001,100+loss:0.2+retry:2
go run ./cmd/kdsim -n 2048 -m 10000 -d 2 -beta 1 -runs 2 -store hist \
    -churn poisson:0.4 -faults loss:0.1+retry:2+evict

echo "==> serve smoke: churned weighted study via kdsim (deterministic online path)"
go run ./cmd/kdsim -n 4096 -m 20000 -d 2 -beta 1 -runs 2 \
    -churn diurnal:0.0005,0.5 -weights zipf:1.5,64 -store hist

echo "==> perf ratchet: every grid's ratchet cells vs the committed BENCH_*.json"
# Re-times the seven ratchet cells at full size against the committed
# files: the serial and 4-shard k=2, d=64 cells, k=8, d=16 and
# k=128, d=192 (the selector's flat ranker and counting path), the hist
# serving cell, the n=10^8 nibble cell and the full-plan faults cell.
# A >15% ns/op regression, the nibble cell over its 0.6 B/bin budget, or a
# file without its grid's ratchet cells prints a PERF WARNING but does not
# fail the pipeline (benchmark boxes are noisy); treat warnings as a prompt
# to run `scripts/ci.sh bench` and investigate before refreshing the JSONs.
# Any per-op allocation in a ratchet cell, or a bench error, FAILS it: the
# hot paths' zero-allocation contract is a correctness gate.
go run ./cmd/bench -compare .

# Import hygiene (cmd/examples on the public API only; substrates
# reachable only from the root package and internal/experiments) is
# enforced by kdlint's layering analyzer above, which replaced the two
# grep gates this script used to carry.

echo "==> ok"
