# Developer entry points. `make check` is the gate every change must pass:
# formatting (gofmt -l fails on any unformatted file), vet, build, and the
# full test suite under the race detector.

GO ?= go

.PHONY: check fmt vet build test race bench bench-pipeline bench-mapper bench-frontend bench-chaos bench-reconcile bench-telemetry bench-serve bench-all benchdiff chaos reconcile serve fuzz

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

# Bench suites. Each target runs one suite and writes its
# BENCH_<suite>.json — a nassim-bench/v2 row list, every row carrying its
# own direction and gate (see internal/benchdiff) — into BENCH_DIR.
BENCH_DIR ?= .

# Engine benchmark: four vendors through the 4-worker pipeline; the
# engine's own per-stage wall time (AssimilationResult.StageElapsed) and
# the run's wall time.
bench-pipeline:
	NASSIM_BENCH_DIR=$(BENCH_DIR) $(GO) test -run xxx -bench BenchmarkAssimilateParallel -benchtime 1x .

# Mapper hot-path benchmarks (vectorized Recommend, parallel MapAll,
# inverted-index TF-IDF Rank).
bench-mapper:
	NASSIM_BENCH_DIR=$(BENCH_DIR) $(GO) test -run xxx \
		-bench 'BenchmarkRecommend$$|BenchmarkMapAll$$|BenchmarkTFIDFRank$$' -benchtime 200x .

# Front-end benchmarks (byte-tokenizer parse pool, compiled-template
# cache, memoized empirical matching at paper corpus scale, isolated
# artifact decode), with derived seed-vs-optimized speedups, pool
# utilizations, and decode_ns_per_artifact.
bench-frontend:
	NASSIM_BENCH_DIR=$(BENCH_DIR) $(GO) test -run xxx \
		-bench 'BenchmarkParseAll|BenchmarkCompileTemplates|BenchmarkValidateConfigs|BenchmarkDecodeArtifact' -benchtime 5x .

# Resilient-exec benchmark under the standard chaos profile: exec p50/p99
# latency, retry counts, faults delivered.
bench-chaos:
	NASSIM_BENCH_DIR=$(BENCH_DIR) $(GO) test -run '^$$' \
		-bench BenchmarkChaosExec -benchtime 2s .

# Fleet benchmark: cycle and probe latencies, probe throughput, cache-hit
# ratio, fleet health.
bench-reconcile:
	NASSIM_BENCH_DIR=$(BENCH_DIR) $(GO) test -run '^$$' \
		-bench BenchmarkReconcileFleet -benchtime 5x .

# The engine's per-stage times, the three non-engine calls evalbench
# times itself (mapper fine-tune and recommendation, controller intent),
# the metric registry, and the run manifest (see README Observability).
bench-telemetry:
	$(GO) run ./cmd/evalbench -stages -scale 0.1 -telemetry-out $(BENCH_DIR)/BENCH_telemetry.json \
		-manifest-out $(BENCH_DIR)/RUN_MANIFEST.json

# Serving benchmark (loadgen hosts the daemon in-process): latency
# percentiles, sustained RPS, dedup economy, queue pressure. -check
# enforces the acceptance criterion: 8 concurrent identical requests ->
# exactly one pipeline execution, dedup hit ratio >= 0.8.
bench-serve:
	$(GO) run ./cmd/loadgen -out $(BENCH_DIR)/BENCH_serve.json -check

# Regenerate every committed BENCH_*.json baseline.
bench-all: bench-pipeline bench-mapper bench-frontend bench-chaos bench-reconcile bench-telemetry bench-serve

# Regression gate: regenerate every benchmark into benchout/ and diff
# against the committed baselines (cmd/benchdiff exits non-zero on
# regression).
benchdiff:
	mkdir -p benchout
	$(MAKE) bench-all BENCH_DIR=benchout
	$(GO) run ./cmd/benchdiff -baseline . -current benchout

# Fuzzing under the race detector, every fuzz target in the repo (14), one
# anchored target per line. Artifact codecs: coverage-guided mutations of
# real encoded artifacts must decode cleanly or be rejected with an
# error — never panic — at the stage-codec layer (FuzzArtifactCodecs) and
# the container layer (FuzzOpen). Both targets also reseal each input
# (rewrite its header hash), so mutated bytes get past the checksum to the
# section tables and the decoders. Their new inputs run to 14 KB, and Go's
# default 60 s minimization of each one stalls the run, so those two lines
# turn minimization off (-fuzzminimizetime 0; a crasher is kept as found).
# CGM index (FuzzIndexMatch): the two-keyword index must answer any
# instance line exactly as a scan over every template does. Tokenizer
# (FuzzTokenize): the byte scan must split any input, invalid UTF-8
# included, exactly as the rune loop it replaced.
# Untrusted text: the YANG, CLI-template and HTML parsers (FuzzParse in
# each package) and the NETCONF RPC dispatcher (FuzzDispatch) must never
# panic on any input. HTML fast paths: the arena builder, the whitespace
# collapser and the byte tokenizer must match their reference
# implementations on any input (FuzzArenaMatchesParse,
# FuzzCollapseSpaceMatchesReference, FuzzByteTokenizer). Device replies
# (FuzzClientExec): any bytes a device sends after its greeting must give
# the client a response or an error, never a panic or a hang. Serve
# request keys (FuzzRequestKey): two request bodies that pass Check get
# equal keys exactly when their normalized requests, tenant cleared, are
# equal; minimizing its new JSON inputs also stalls the run (0 execs/s
# for 12 s of a 21 s run), so it too runs with -fuzzminimizetime 0.
# Vendor parsers (FuzzParseManual): any vendor's parser over any manual
# page must return without panicking, and a second parse of the page
# must give the same corpora and completeness report. Its inputs are
# whole manual pages of several KB, and minimizing one stalls the run at
# 0 execs/s, so it runs with -fuzzminimizetime 0 too. The seed corpora
# also run in every plain `go test`.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -race -run '^$$' -fuzz '^FuzzArtifactCodecs$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/pipeline
	$(GO) test -race -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/artifact
	$(GO) test -race -run '^$$' -fuzz '^FuzzIndexMatch$$' -fuzztime $(FUZZTIME) ./internal/cgm
	$(GO) test -race -run '^$$' -fuzz '^FuzzTokenize$$' -fuzztime $(FUZZTIME) ./internal/nlp
	$(GO) test -race -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/yang
	$(GO) test -race -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/clisyntax
	$(GO) test -race -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/htmlparse
	$(GO) test -race -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime $(FUZZTIME) ./internal/netconf
	$(GO) test -race -run '^$$' -fuzz '^FuzzArenaMatchesParse$$' -fuzztime $(FUZZTIME) ./internal/htmlparse
	$(GO) test -race -run '^$$' -fuzz '^FuzzCollapseSpaceMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/htmlparse
	$(GO) test -race -run '^$$' -fuzz '^FuzzByteTokenizer$$' -fuzztime $(FUZZTIME) ./internal/htmlparse
	$(GO) test -race -run '^$$' -fuzz '^FuzzClientExec$$' -fuzztime $(FUZZTIME) ./internal/device
	$(GO) test -race -run '^$$' -fuzz '^FuzzRequestKey$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/serve
	$(GO) test -race -run '^$$' -fuzz '^FuzzParseManual$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./internal/parser

# Chaos suite: fault injection, resilient client, breaker, and the
# end-to-end chaos assimilation tests, twice under the race detector, then
# the chaos benchmark.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Resilient|Breaker|Faultnet|Retry|Degrad' ./...
	$(MAKE) bench-chaos

# Reconciler suite: the fleet reconciler's drift, scenario, leak, and
# settled-dead tests under the race detector (including the 500-device
# acceptance run), then the fleet benchmark.
reconcile:
	$(GO) test -race -run 'Reconcile|Fleet|Scenario|Drift|Dead|Settle' ./internal/reconciler ./internal/device .
	$(MAKE) bench-reconcile

# Run nassimd, the long-lived assimilation daemon (Ctrl-C drains).
serve:
	$(GO) run ./cmd/nassim serve
