# Build, test, and verification entry points. `make check` is the CI
# gate: vet + build + full test suite under the race detector.

GO ?= go

.PHONY: check verify build test race vet fmt-check bench bench-telemetry bench-wal bench-cluster bench-ingest bench-check crash-test doccheck loadgen chaos cluster-test trace-smoke fuzz-smoke clean

check: vet build race

# Full pre-merge verification: formatting, vet, build, tests, the
# sharded-cluster suite (in-process chaos harness + real-process smoke),
# the benchmark module's vet/build plus the open-loop scheduler's tests
# under the race detector, the end-to-end trace smoke (one traced upload
# must cross gateway -> shard -> WAL under a single trace ID), the godoc
# coverage gate on contract-surface packages, and a short run of every
# fuzz target.
verify: fmt-check vet build test doccheck cluster-test bench-check trace-smoke fuzz-smoke

# Godoc coverage on contract-surface packages: every exported
# identifier (funcs, methods, types, consts, vars, struct fields) must
# carry a doc comment. The package list lives in scripts/doccheck.sh.
doccheck:
	scripts/doccheck.sh

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Performance suite for the parallel pipeline PR: model construction
# fan-out, non-blocking retrain, cached model serving, k-means worker
# pool, FFT hot path, and the telemetry budget. Results land in
# BENCH_2.json (machine-readable, via cmd/waldo-benchjson) with the raw
# text kept alongside in BENCH_2.txt.
BENCH_PATTERN ?= BuildModelParallel|RetrainConcurrentSubmit|RetrainStoreScale|ModelEndpointCached|KMeansAssign|FFT256|PowerSpectrum256
BENCH_PKGS ?= ./internal/core/ ./internal/dbserver/ ./internal/ml/kmeans/ ./internal/dsp/

bench: bench-ingest
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -run XXX $(BENCH_PKGS) | tee BENCH_2.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_2.txt > BENCH_2.json

# Telemetry hot-path budget (< ~100 ns/op for counter inc / histogram
# observe).
bench-telemetry:
	$(GO) test -bench . -benchmem -run XXX ./internal/telemetry/

# Durability suite for the WAL PR: group-commit append cost, the full
# durable round trip, recovery replay speed, and the upload path with and
# without a WAL (the acceptance criterion: durable within ~10% of
# in-memory). Fixed iteration counts keep the memory/WAL comparison fair —
# per-op cost grows with store size, so time-based -benchtime would hand
# the two variants different workloads. Results land in BENCH_5.json with
# the raw text in BENCH_5.txt.
WAL_BENCH_PATTERN ?= BenchmarkAppendGroupCommit|BenchmarkAppendDurable|BenchmarkReplay
UPLOAD_BENCH_PATTERN ?= BenchmarkUploadPath

bench-wal:
	$(GO) test -bench '$(WAL_BENCH_PATTERN)' -benchmem -run XXX ./internal/wal/ | tee BENCH_5.txt
	$(GO) test -bench '$(UPLOAD_BENCH_PATTERN)' -benchmem -benchtime 30000x -run XXX ./internal/dbserver/ | tee -a BENCH_5.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_5.txt > BENCH_5.json

# The crash-recovery acceptance test under the race detector: a server
# killed mid-campaign (clean kill and torn-tail variants, plus a run under
# client-side network chaos) must recover from disk to byte-identical
# decisions, store exports, and model versions.
crash-test:
	$(GO) test -race ./internal/e2e/ -run 'TestCrashRecovery|TestRunCrashValidation' -count 1 -v

# End-to-end performance harness against an in-process spectrum database.
loadgen:
	$(GO) run ./cmd/waldo-loadgen -clients 8 -duration 5s -channels 46,47

# Deterministic chaos suite: the fault-injection layer, the client/server
# resilience tests, and the end-to-end byte-identity harness, all under
# the race detector (DESIGN.md §9).
chaos:
	$(GO) test -race ./internal/faultinject/ ./internal/e2e/ -count 1
	$(GO) test -race ./internal/client/ -run 'TestRetry|TestBackoff|TestBreaker|TestStaleServe|TestConcurrentRefreshUploadUnderFaults' -count 1
	$(GO) test -race ./internal/dbserver/ -run 'TestLoadShedding|TestRequestTimeout|TestMaxBody' -count 1

# Sharded-cluster acceptance: the ring/replication/gateway unit tests and
# the kill-a-primary e2e chaos harness under the race detector, then a
# real-process smoke — three waldo-server shards plus a waldo-gateway on
# loopback, loadgen driving the gateway (DESIGN.md §12).
cluster-test:
	$(GO) test -race ./internal/cluster/ -count 1
	$(GO) test -race ./internal/e2e/ -run TestCluster -count 1
	mkdir -p bin
	$(GO) build -o bin ./cmd/waldo-server ./cmd/waldo-gateway ./cmd/waldo-loadgen
	scripts/cluster_smoke.sh bin

# End-to-end trace smoke: real-process 3-shard cluster plus gateway, one
# traced upload, then assert the response-header trace ID is retained by
# both the gateway's and the owning shard's /debug/traces with the
# fan-out leg and WAL append spans (DESIGN.md §14).
trace-smoke:
	mkdir -p bin
	$(GO) build -o bin ./cmd/waldo-server ./cmd/waldo-gateway
	scripts/trace_smoke.sh bin

# Cluster tier benchmarks: gateway routing overhead vs a direct shard
# upload (the acceptance bar: < 2× per op), plus ring lookup and
# replication frame encode costs. Fixed iteration counts keep the
# direct/gateway comparison fair. Results land in BENCH_6.json with the
# raw text in BENCH_6.txt.
CLUSTER_BENCH_PATTERN ?= BenchmarkUploadDirect|BenchmarkUploadViaGateway|BenchmarkRingOwner|BenchmarkFrameEncode

bench-cluster:
	$(GO) test -bench '$(CLUSTER_BENCH_PATTERN)' -benchmem -benchtime 3000x -run XXX ./internal/cluster/ | tee BENCH_6.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_6.txt > BENCH_6.json

# Ingest suite for the binary-batching PR: the same 256-reading stream
# ingested as 64 per-scan JSON uploads vs one binary batch frame, memory
# and WAL variants (acceptance: batch ≥ 10× single-JSON readings/s), plus
# the watch-hub bump cost with 0 and 4096 idle watchers parked
# (acceptance: flat — the retrain path does O(1) work however many WSDs
# wait). Fixed iteration counts keep the comparisons on equal store
# sizes. Results land in BENCH_7.json with the raw text in BENCH_7.txt.
# Gate changes against a saved baseline with
# scripts/bench_regress.sh BASELINE.json BENCH_7.json.
INGEST_BENCH_PATTERN ?= BenchmarkIngest
WATCH_BENCH_PATTERN ?= BenchmarkWatchBump

bench-ingest:
	$(GO) test -bench '$(INGEST_BENCH_PATTERN)' -benchmem -benchtime 500x -run XXX ./internal/dbserver/ | tee BENCH_7.txt
	$(GO) test -bench '$(WATCH_BENCH_PATTERN)' -benchtime 100000x -run XXX ./internal/dbserver/ | tee -a BENCH_7.txt
	$(GO) run ./cmd/waldo-benchjson < BENCH_7.txt > BENCH_7.json

# The repo benchmark lives in the nested waldobench module (run it with
# `bash waldobench/run.sh`; workloads and metrics in BENCHMARK.json and
# waldobench/README.md). The root `go build ./...` does not descend into
# a nested module, so vet and build it here: a root API change that
# breaks the benchmark fails verify, not only the benchmark run. Then
# the open-loop scheduler it drives load with, under the race detector.
bench-check:
	cd waldobench && $(GO) vet ./... && $(GO) build -o /dev/null ./...
	$(GO) test -race ./internal/benchharness/ -count 1

# Fuzz smoke: every Fuzz* target in the module (the benchmark module
# has none) fuzzes for 5 s past its seed corpus, two workers each. `go
# test -fuzz` takes one target per run, so targets are found by name.
fuzz-smoke:
	@set -e; find . -path ./.bench_build -prune -o -path ./waldobench -prune -o -name '*_test.go' -print | \
	xargs grep -o '^func Fuzz[A-Za-z0-9_]*' | sort | while IFS=: read -r file fn; do \
		target=$${fn#func }; pkg=$$(dirname "$$file"); \
		echo "fuzz-smoke: $$pkg $$target"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s -parallel 2; \
	done

clean:
	$(GO) clean ./...
