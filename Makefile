# Developer entry points. `make check` is the gate every change must pass:
# formatting (gofmt -l fails on any unformatted file), vet, build, and the
# full test suite under the race detector.

GO ?= go

.PHONY: check fmt vet build test race bench bench-pipeline bench-mapper bench-frontend bench-reconcile bench-serve bench-all benchdiff chaos reconcile serve stages fuzz

check: fmt vet build race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Engine benchmark: four vendors through the 4-worker pipeline, exported
# to BENCH_pipeline.json (schema nassim-pipeline-bench/v1).
bench-pipeline:
	NASSIM_BENCH_OUT=BENCH_pipeline.json $(GO) test -run xxx -bench BenchmarkAssimilateParallel -benchtime 1x .

# Mapper hot-path benchmarks (vectorized Recommend, parallel MapAll,
# inverted-index TF-IDF Rank), exported to BENCH_mapper.json (schema
# nassim-mapper-bench/v1).
bench-mapper:
	NASSIM_MAPPER_BENCH_OUT=BENCH_mapper.json $(GO) test -run xxx \
		-bench 'BenchmarkRecommend$$|BenchmarkMapAll$$|BenchmarkTFIDFRank$$' -benchtime 200x .

# Front-end benchmarks (byte-tokenizer parse pool, compiled-template
# cache, memoized empirical matching at paper corpus scale, isolated
# artifact decode), exported to BENCH_frontend.json (schema
# nassim-frontend-bench/v1) with derived seed-vs-optimized speedups,
# pool utilizations, and decode_ns_per_artifact.
bench-frontend:
	NASSIM_FRONTEND_BENCH_OUT=BENCH_frontend.json $(GO) test -run xxx \
		-bench 'BenchmarkParseAll|BenchmarkCompileTemplates|BenchmarkValidateConfigs|BenchmarkDecodeArtifact' -benchtime 5x .

# Fuzzing under the race detector. Artifact codecs: coverage-guided
# mutations of real encoded artifacts must decode cleanly or be rejected
# with an error — never panic — at the stage-codec layer
# (FuzzArtifactCodecs) and the container layer (FuzzOpen). CGM index
# (FuzzIndexMatch): the two-keyword index must answer any instance line
# exactly as a scan over every template does. The seed corpora also
# run in every plain `go test`.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -race -run '^$$' -fuzz FuzzArtifactCodecs -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -race -run '^$$' -fuzz FuzzOpen -fuzztime $(FUZZTIME) ./internal/artifact
	$(GO) test -race -run '^$$' -fuzz FuzzIndexMatch -fuzztime $(FUZZTIME) ./internal/cgm

# Chaos suite: fault injection, resilient client, breaker, and the
# end-to-end chaos assimilation tests, twice under the race detector, then
# the resilient-exec benchmark exported to BENCH_chaos.json (schema
# nassim-chaos-bench/v1: exec p50/p99 latency, retry counts, faults
# delivered).
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Resilient|Breaker|Faultnet|Retry|Degrad' ./...
	NASSIM_CHAOS_BENCH_OUT=BENCH_chaos.json $(GO) test -run '^$$' \
		-bench BenchmarkChaosExec -benchtime 2s .

# Reconciler suite: the fleet reconciler's drift, scenario, leak, and
# settled-dead tests under the race detector (including the 500-device
# acceptance run), then the fleet benchmark exported to
# BENCH_reconcile.json (schema nassim-reconcile-bench/v1: cycle and probe
# latencies, probe throughput, cache-hit ratio, fleet health).
reconcile:
	$(GO) test -race -run 'Reconcile|Fleet|Scenario|Drift|Dead|Settle' ./internal/reconciler ./internal/device .
	NASSIM_RECONCILE_BENCH_OUT=BENCH_reconcile.json $(GO) test -run '^$$' \
		-bench BenchmarkReconcileFleet -benchtime 5x .

bench-reconcile:
	NASSIM_RECONCILE_BENCH_OUT=BENCH_reconcile.json $(GO) test -run '^$$' \
		-bench BenchmarkReconcileFleet -benchtime 5x .

# Run nassimd, the long-lived assimilation daemon (Ctrl-C drains).
serve:
	$(GO) run ./cmd/nassim serve

# Serving suite: the serve package's singleflight, admission, shutdown,
# and golden tests under the race detector, then the serving benchmark
# (loadgen hosts the daemon in-process) exported to BENCH_serve.json
# (schema nassim-serve-bench/v1: latency percentiles, sustained RPS,
# dedup economy, queue pressure). -check enforces the acceptance
# criterion: 8 concurrent identical requests -> exactly one pipeline
# execution, dedup hit ratio >= 0.8.
bench-serve:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) run ./cmd/loadgen -out BENCH_serve.json -check

# Per-stage pipeline timing + BENCH_telemetry.json, plus the run manifest
# (see README Observability).
stages:
	$(GO) run ./cmd/evalbench -stages -scale 0.1 -manifest-out RUN_MANIFEST.json

# Regenerate every committed BENCH_*.json baseline.
bench-all: bench-pipeline bench-mapper bench-frontend bench-reconcile stages
	NASSIM_CHAOS_BENCH_OUT=BENCH_chaos.json $(GO) test -run '^$$' \
		-bench BenchmarkChaosExec -benchtime 2s .
	$(GO) run ./cmd/loadgen -out BENCH_serve.json -check

# Regression gate: regenerate every benchmark into out/ and diff against
# the committed baselines (cmd/benchdiff exits non-zero on regression).
BENCHDIFF_OUT ?= benchout
benchdiff:
	mkdir -p $(BENCHDIFF_OUT)
	NASSIM_BENCH_OUT=$(BENCHDIFF_OUT)/BENCH_pipeline.json $(GO) test -run xxx -bench BenchmarkAssimilateParallel -benchtime 1x .
	NASSIM_MAPPER_BENCH_OUT=$(BENCHDIFF_OUT)/BENCH_mapper.json $(GO) test -run xxx \
		-bench 'BenchmarkRecommend$$|BenchmarkMapAll$$|BenchmarkTFIDFRank$$' -benchtime 200x .
	NASSIM_FRONTEND_BENCH_OUT=$(BENCHDIFF_OUT)/BENCH_frontend.json $(GO) test -run xxx \
		-bench 'BenchmarkParseAll|BenchmarkCompileTemplates|BenchmarkValidateConfigs|BenchmarkDecodeArtifact' -benchtime 5x .
	NASSIM_CHAOS_BENCH_OUT=$(BENCHDIFF_OUT)/BENCH_chaos.json $(GO) test -run '^$$' \
		-bench BenchmarkChaosExec -benchtime 2s .
	NASSIM_RECONCILE_BENCH_OUT=$(BENCHDIFF_OUT)/BENCH_reconcile.json $(GO) test -run '^$$' \
		-bench BenchmarkReconcileFleet -benchtime 5x .
	$(GO) run ./cmd/evalbench -stages -scale 0.1 -telemetry-out $(BENCHDIFF_OUT)/BENCH_telemetry.json \
		-manifest-out $(BENCHDIFF_OUT)/RUN_MANIFEST.json
	$(GO) run ./cmd/loadgen -out $(BENCHDIFF_OUT)/BENCH_serve.json -check
	$(GO) run ./cmd/benchdiff -baseline . -current $(BENCHDIFF_OUT)
