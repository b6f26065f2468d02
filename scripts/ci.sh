#!/usr/bin/env bash
# ci.sh — the repository's check pipeline.
#
#   scripts/ci.sh          format check, vet, kdlint, the bench module's
#                          vet/test/kdlint, build, arm64/386/darwin
#                          cross-builds, full tests, a
#                          tree-wide -race pass, parser fuzz smokes, the
#                          hot-path escape gate, and quick-mode bench +
#                          scale smoke runs (exercising every store and
#                          the superstep engine end to end)
#   scripts/ci.sh bench    refresh the tracked benchmark grids
#                          (BENCH_kd.json, BENCH_scale.json,
#                          BENCH_serve.json, BENCH_approx.json and
#                          BENCH_faults.json)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "bench" ]; then
    echo "==> refreshing BENCH_kd.json (full micro grid, ~30s)"
    go run ./cmd/bench -out BENCH_kd.json
    echo "==> refreshing BENCH_scale.json (scale grid, ~60s)"
    go run ./cmd/bench -scale -out BENCH_scale.json
    echo "==> refreshing BENCH_serve.json (online serving grid, ~10s)"
    go run ./cmd/bench -serve -out BENCH_serve.json
    echo "==> refreshing BENCH_approx.json (approximate-store grid, ~60s)"
    go run ./cmd/bench -approx -out BENCH_approx.json
    echo "==> refreshing BENCH_faults.json (fault-injection serving grid, ~10s)"
    go run ./cmd/bench -faults -out BENCH_faults.json
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

echo "==> bench smoke: micro grid (-quick)"
go run ./cmd/bench -quick -out ''

echo "==> bench smoke: scale grid (-scale -quick; all stores)"
go run ./cmd/bench -scale -quick -out ''

echo "==> bench smoke: explicit superstep sizes (-block 1 and 7, bit-identical engines)"
go run ./cmd/bench -quick -block 1 -out ''
go run ./cmd/bench -quick -block 7 -out ''

echo "==> bench smoke: sharded ablation (-shards 3)"
go run ./cmd/bench -quick -shards 3 -out ''

echo "==> bench smoke: scale grid on the nibble store (-scale -quick -store nibble)"
go run ./cmd/bench -scale -quick -store nibble -out ''

echo "==> bench smoke: approximate-store grid (-approx -quick; B/bin + inflation columns)"
go run ./cmd/bench -approx -quick -out ''

echo "==> bench smoke: online serving grid (-serve -quick; insert/delete mix, every store)"
go run ./cmd/bench -serve -quick -out ''

echo "==> bench smoke: fault-injection grid (-faults -quick; loss/retry/outage/evict plans)"
go run ./cmd/bench -faults -quick -out ''

echo "==> faults smoke: degraded round + serving runs via kdsim (deterministic fault layer)"
go run ./cmd/kdsim -n 4096 -k 2 -d 8 -runs 2 -faults fail:0.001,100+loss:0.2+retry:2
go run ./cmd/kdsim -n 2048 -m 10000 -d 2 -beta 1 -runs 2 -store hist \
    -churn poisson:0.4 -faults loss:0.1+retry:2+evict

echo "==> serve smoke: churned weighted study via kdsim (deterministic online path)"
go run ./cmd/kdsim -n 4096 -m 20000 -d 2 -beta 1 -runs 2 \
    -churn diurnal:0.0005,0.5 -weights zipf:1.5,64 -store hist

echo "==> perf ratchet: tracked cells vs committed BENCH_kd.json (warns, never fails)"
# Re-times the serial and 4-shard acceptance cells (k=2, d=64)
# and the k=8, d=16 and k=128, d=192 cells (the selector's flat ranker and
# counting path) at full size against the committed trajectory. A >15%
# regression prints a PERF WARNING but does not fail the pipeline
# (benchmark boxes are noisy); treat warnings as a prompt to run
# `scripts/ci.sh bench` and investigate before refreshing the JSONs. The
# sharded cell is the parallel-engine ratchet: it regresses when the
# superstep machinery itself slows down, independent of how many cores the
# box offers.
go run ./cmd/bench -compare BENCH_kd.json || echo "perf ratchet skipped (bench error)"

echo "==> perf ratchet: tracked serving cell vs committed BENCH_serve.json (warns, never fails)"
# The mixed insert/delete cell additionally warns if the specialized
# kernels ever start allocating per operation.
go run ./cmd/bench -compareserve BENCH_serve.json || echo "serve ratchet skipped (bench error)"

echo "==> perf ratchet: tracked approximate-store cell vs committed BENCH_approx.json (warns, never fails)"
# The n=10^8 nibble cell additionally warns if its measured bytes/bin ever
# exceeds the 0.6 B/bin budget the sub-byte store exists to hold.
go run ./cmd/bench -compareapprox BENCH_approx.json || echo "approx ratchet skipped (bench error)"

echo "==> perf ratchet: tracked faulty serving cell vs committed BENCH_faults.json"
# Time drift >15% warns like the other ratchets, but any per-op allocation
# in the faulty serving path FAILS the pipeline: the fault layer's
# zero-allocation contract is a correctness gate, not a perf preference.
go run ./cmd/bench -comparefaults BENCH_faults.json

# Import hygiene (cmd/examples on the public API only; substrates
# reachable only from the root package and internal/experiments) is
# enforced by kdlint's layering analyzer above, which replaced the two
# grep gates this script used to carry.

echo "==> ok"
