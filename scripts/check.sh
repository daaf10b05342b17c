#!/usr/bin/env sh
# check.sh — the repo's tier-1+ gate: vet, build, machlint, full test suite,
# and the race detector over the concurrent packages (the worker-pool engine
# and the row-parallel matmul). Run via `make check` or directly. Every PR
# must pass.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== machlint ./... (DESIGN.md §5.5 invariants)"
lint_t0=$(date +%s)
go run ./cmd/machlint ./...
lint_t1=$(date +%s)
echo "   lint wall time: $((lint_t1 - lint_t0))s"

echo "== machlint -ledger (committed suppression inventory is current)"
go run ./cmd/machlint -ledger ./... | diff - lint_ledger.txt \
	|| { echo "check: lint_ledger.txt is stale; regenerate with make lint-ledger" >&2; exit 1; }

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -race -short (parallel engine determinism)"
go test -race -short -run 'TestRunBitIdenticalAcrossWorkerCounts|TestFinalParamsGolden' ./internal/hfl

echo "== go test -race -short (fed wire protocol + codec)"
go test -race -short ./internal/fed/ ./internal/codec/

echo "== go test -race -short (execution-chunk determinism, both lanes)"
go test -race -short -run 'TestRunF32BitIdenticalAcrossWorkerCounts|TestRunChunkedBitIdenticalAcrossWorkerCounts' ./internal/hfl

echo "== go test -race -short (sharded control plane, Shards=3 smoke)"
go test -race -short -run 'TestRunBitIdenticalAcrossShardCounts|TestShardedMatchesSeedEngineGolden' ./internal/hfl

echo "== streaming-vs-dense bit-identity smoke (StepSource plane, DESIGN.md §12)"
go test -count=1 -run 'TestRunStreamingMatchesDenseBitIdentical|TestTransitionStatsAreObservationOnly' ./internal/hfl
go test -count=1 -run 'TestMarkovSourceMatchesMaterializedTwin|TestGeoSourcesMatchMaterializedTwin|TestTraceSourceMatchesBuildSchedule|TestAdvanceWithMatchesAdvance' ./internal/mobility

echo "== go test -race (sharded engine on a streaming source)"
go test -race -count=1 -run 'TestRunStreamingMatchesDenseBitIdentical' ./internal/hfl

echo "== f32-lane smoke (seeded run, accuracy within tolerance of f64)"
go test -count=1 -run 'TestRunF32TracksF64' ./internal/hfl

echo "== scale bench smoke (-exp scale -quick, naive/indexed divergence check)"
scale_tmp=$(mktemp -d)
go run ./cmd/machbench -exp scale -quick -out "$scale_tmp" >/dev/null
rm -rf "$scale_tmp"

echo "== telemetry bench smoke (-exp telemetry -quick, cross-mode agreement check)"
tel_tmp=$(mktemp -d)
go run ./cmd/machbench -exp telemetry -quick -out "$tel_tmp" >/dev/null
rm -rf "$tel_tmp"

echo "== observability smoke (machsim -debug-addr, machtop scrape mid-run)"
obs_tmp=$(mktemp -d)
go build -o "$obs_tmp/machsim" ./cmd/machsim
go build -o "$obs_tmp/machtop" ./cmd/machtop
"$obs_tmp/machsim" -task mnist -strategy mach -steps 60 \
	-debug-addr 127.0.0.1:16060 -metrics-out "$obs_tmp/snap.json" \
	>/dev/null 2>"$obs_tmp/machsim.log" &
obs_pid=$!
# Poll /healthz until the debug server is up (the run itself takes longer).
obs_ok=0
for _ in $(seq 1 50); do
	if "$obs_tmp/machtop" scrape -addr 127.0.0.1:16060 >"$obs_tmp/scrape.out" 2>&1; then
		obs_ok=1
		break
	fi
	sleep 0.1
done
[ "$obs_ok" = 1 ] || { echo "check: machtop scrape never succeeded against a live machsim" >&2; \
	cat "$obs_tmp/scrape.out" "$obs_tmp/machsim.log" >&2; kill "$obs_pid" 2>/dev/null; exit 1; }
cat "$obs_tmp/scrape.out"
wait "$obs_pid" || { echo "check: machsim -debug-addr run failed" >&2; cat "$obs_tmp/machsim.log" >&2; exit 1; }
# The final snapshot must diff cleanly against itself (machtop diff exit 0).
"$obs_tmp/machtop" diff "$obs_tmp/snap.json" "$obs_tmp/snap.json" >/dev/null
rm -rf "$obs_tmp"

echo "== engine bench headline (committed BENCH_engine.json, serial row)"
awk '/"ns_per_step"/ && !ns {ns=$2} /"final_accuracy"/ && !acc {acc=$2} END \
	{gsub(/,/, "", ns); gsub(/,/, "", acc); printf "   ns_per_step=%s final_accuracy=%s\n", ns, acc}' BENCH_engine.json

echo "check: OK"
