#!/bin/sh
# bench_snapshot.sh — run the core benchmark set and freeze the results
# into a BENCH_<date>[_<label>].json snapshot at the repo root, via the
# cmd/benchsnap normalizer. Usage:
#
#   scripts/bench_snapshot.sh [label]
#
# Environment:
#   GO          go binary (default: go)
#   BENCH       -bench regexp (default: the end-to-end + pipeline set)
#   BENCHTIME   -benchtime (default: 100ms — the heavy suite benches
#               exceed it and still run once per -count, while the
#               microsecond-scale kernel benches get enough iterations
#               to be stable; raise for publication numbers)
#   COUNT       -count (default: 3; repeated runs fold best-of-N)
#   OUT         output directory (default: repo root)
#   ALLOW_MISSING=1  skip the coverage check against the newest committed
#               snapshot (by default the script fails, writing nothing,
#               when a benchmark recorded in that snapshot is absent from
#               this run — e.g. a deliberately narrowed BENCH)
#
# The benchmark selection is intentionally the *end-to-end* set: the
# full-suite simulation (BenchmarkSuiteAll) that the ≥5x streaming claim
# is made against, plus the per-benchmark pipeline, Figure 8 and geometry
# sweep benches (the last two at 1 and 4 workers: the parallel speedup),
# Table 2 (eight small fan-outs per call, so the fan-out's own cost),
# the dense theta sweeps, one dense sweep query end to end
# (BenchmarkSweepThetaQuery: registry resolution, compile and fold), and
# the compile alone (BenchmarkCompileDense256), whose allocs/op gate the
# curve table's per-policy and per-row allocations, and the single-cell
# evaluations explore and leakaged answer (BenchmarkEvaluateCell).
# Micro-benches churn too much to gate on.
#
# The snapshot records HEAD as the commit it measured, so the script
# refuses (exit 1, nothing benchmarked or written) while tracked files
# differ from HEAD: commit or stash them first.
set -eu

cd "$(dirname "$0")/.."

if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    echo "bench_snapshot.sh: tracked files differ from HEAD; commit or stash them so the snapshot's commit names the measured tree" >&2
    git status --short --untracked-files=no >&2
    exit 1
fi

GO="${GO:-go}"
BENCH="${BENCH:-^(BenchmarkSuiteAll|BenchmarkPipelineSimulateGzip|BenchmarkFigure8Workers1|BenchmarkFigure8Workers4|BenchmarkTable2_TechnologyScaling|BenchmarkGeometrySweepWorkers1|BenchmarkGeometrySweepWorkers4|BenchmarkSweepDense256Reference|BenchmarkSweepDense256Aggregates|BenchmarkSweepThetaQuery|BenchmarkCompileDense256|BenchmarkEvaluateCell|BenchmarkParetoPopulation|BenchmarkSpecCompile|BenchmarkReplayPass)\$}"
BENCHTIME="${BENCHTIME:-100ms}"
COUNT="${COUNT:-3}"
OUT="${OUT:-.}"
LABEL="${1:-}"

DATE=$(date +%Y-%m-%d)
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo "")

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "running: $GO test -run '^\$' -bench '$BENCH' -benchmem -benchtime $BENCHTIME -count $COUNT ." >&2
$GO test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$tmp" >&2

set -- -out "$OUT" -date "$DATE" -commit "$COMMIT"
if [ -n "$LABEL" ]; then
    set -- "$@" -label "$LABEL"
fi
if [ "${ALLOW_MISSING:-}" != "1" ]; then
    set -- "$@" -require-coverage
fi
$GO run ./cmd/benchsnap "$@" <"$tmp"
