# Single source of truth for the commands CI runs, so humans and the
# workflows in .github/workflows/ can never drift apart.

GO ?= go

.PHONY: build test race lint vulncheck bench bench-json bench-gate cover test-parallel smoke fuzz-regress check-specs

# benchmark/ is its own module (replace leakbound => ../), so the root
# build skips it; vetting it here makes a removed exported name that the
# leakbench harness calls fail the build.
build:
	$(GO) build ./...
	cd benchmark && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l lists unformatted files; any output fails the target.
# go vet owns lock copies (copylocks). leakbound-lint is the repo's own
# multichecker (ctxflow, errwrap, telemetryscope, locks, plus the
# interprocedural detflow and hotalloc); `go run` needs no install step. -timing prints the
# per-analyzer wall time so a slow summary pass is visible immediately.
# staticcheck runs when installed (CI installs the pinned 2024.1.1; offline
# dev boxes may not have it, and must not fail for lack of a network).
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/leakbound-lint -timing ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

# govulncheck runs when installed; like staticcheck, a network-restricted
# box (or fork CI) skips rather than fails. The CI job makes it blocking
# only on pushes to main.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The parallel-pipeline determinism suite under the race detector: the
# worker-count (suite and studies), concurrent-walk, parallel-evaluation
# (TestEvaluateSideMatchesSequential, evaluateSide against a sequential
# oracle), singleflight and cancellation (AllContext and forEach) tests of
# the experiments package; the caller-runs fan-out's own tests
# (telemetry.ForEach: every task once, drain after a failure, the
# lowest-index error, the bound counting the caller, inline runs); then,
# in the leakage package, one Compiled
# shared by goroutines and a theta point's bits alone, in its ladder and
# in a mixed list, through both kernels. Every alternative in a -run
# pattern must match a test (go test -list), since -run passes silently
# when nothing matches.
test-parallel:
	$(GO) test -race -count=1 -run 'TestWorkersDoNotChangeResults|TestStudiesDoNotDependOnWorkers|TestL2WalksRaceFree|TestEvaluateSideMatches|TestAllContextCancel|TestForEachCancel|TestDataSingleflight|TestWaiterCancellation' ./internal/experiments/
	$(GO) test -race -count=1 -run 'TestForEachRunsEveryTask|TestForEachDrainsAfterFailure|TestForEachLowestIndexError|TestForEachBoundsConcurrency|TestForEachInlineStartsNoGoroutine' ./internal/telemetry/
	$(GO) test -race -count=1 -run 'TestCompiledSharedAcrossGoroutines|TestThetaPointBitsDoNotDependOnList' ./internal/leakage/

# One iteration of every benchmark, no unit tests: a smoke test that keeps
# bench_test.go compiling and running (the nightly CI job runs this).
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Freeze the core end-to-end benchmarks into BENCH_<date>[_label].json at
# the repo root (see scripts/bench_snapshot.sh for the selection and the
# BENCH/BENCHTIME/COUNT knobs). `make bench-json LABEL=r2-streaming`.
bench-json:
	GO=$(GO) sh scripts/bench_snapshot.sh $(LABEL)

# Run the same benchmark set and gate it against the newest committed
# BENCH_*.json: allocs/op regressions always fail; ns/op regressions
# >20% fail only when the baseline came from the same CPU model (timing
# across different machines is advisory). GATE_FLAGS=-warn-only to
# report without failing; GATE_FLAGS+='-summary $$GITHUB_STEP_SUMMARY'
# in CI to publish the comparison table.
bench-gate:
	$(GO) test -run '^$$' -bench '^(BenchmarkSuiteAll|BenchmarkPipelineSimulateGzip|BenchmarkFigure8Workers1|BenchmarkFigure8Workers4|BenchmarkTable2_TechnologyScaling|BenchmarkGeometrySweepWorkers1|BenchmarkGeometrySweepWorkers4|BenchmarkSweepDense256Reference|BenchmarkSweepDense256Aggregates|BenchmarkSweepThetaQuery|BenchmarkCompileDense256|BenchmarkEvaluateCell|BenchmarkParetoPopulation|BenchmarkSpecCompile|BenchmarkReplayPass)$$' \
		-benchmem -benchtime 100ms -count 3 . | $(GO) run ./cmd/benchsnap -compare . $(GATE_FLAGS)

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# End-to-end daemon smoke: build cmd/leakaged, boot it on an ephemeral
# port, probe /readyz and a figure endpoint, SIGTERM, require exit 0.
smoke:
	GO=$(GO) sh scripts/smoke_leakaged.sh

# Replay the seed corpus of every fuzz target as plain tests (no fuzzing
# time budget needed) — the regression net for the trace and distribution
# codecs, the tail compaction, the CPU core's fetch grouping, the prefetch
# classifier, the query parser, the workload-spec parser, the aggregate
# kernels and the curves' flag masks (FuzzCurveReads), and leakaged's
# POST bodies.
fuzz-regress:
	$(GO) test -run=Fuzz ./internal/sim/trace/ ./internal/sim/cpu/ ./internal/interval/ ./internal/prefetch/ ./internal/experiments/ ./internal/leakage/ ./internal/workload/spec/ ./internal/server/

# Validate every committed example workload spec (parse + strict
# validation + digest) via the tracegen -check path CI and users share.
check-specs:
	$(GO) run ./cmd/tracegen -check examples/specs
