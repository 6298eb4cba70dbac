#!/bin/sh
# Local CI: the build flavours that gate a change to cloudlens.
#
#   1. Release        — optimized build, full ctest suite.
#   2. ThreadSanitizer — same suite under TSan; this is the build that
#      polices the deterministic parallel engine (common/parallel.*),
#      every parallel call site, and concurrent readers of a built
#      telemetry panel. Run it whenever you touch them. That includes the
#      advisor fan-out (per-node oversubscription tasks, the per-VM mean
#      pass), which AdvisorEquivalence drives with and without a panel and
#      cli_roundtrip drives through `cloudlens advise --threads 8` over
#      task-owned scratch rows.
#   3. UBSan          — address+undefined (incl. float-cast-overflow);
#      runs the kernel + stats suites, policing the AVX2 kernels'
#      integer/float conversions and intrinsic shims, and the snapshot,
#      population, run-plan and knowledge-base suites, policing the CLSN
#      container writer/reader, the shard seal and decode paths and the
#      kb artifact's decode.
#
# The kernel suites call the scalar and (on an AVX2 CPU) the AVX2 kernel
# paths directly, so the one ctest pass per flavour covers both. Each
# flavour also fails when a ctest name holds a parameter's raw bytes
# (`ctest -N` lists "byte object"): such names change between builds.
#
# Both flavours re-run the telemetry-panel suites explicitly (panel
# lifecycle, sample()==at() contract, built-vs-unbuilt bit identity) and
# the observability suites (metrics/span/context determinism — the TSan
# pass polices the sharded registry and the span sink under concurrency).
# Both also re-run the snapshot + pipeline suites (binary snapshot round
# trips, cache-key invariants, cold/warm equivalence) — the TSan pass
# matters here because warm runs rebuild the panel over a loaded trace
# that parallel analyses then read — and the serve suites (stream format pins,
# streamed-vs-batch byte identity, the snapshot epoch clamp, checkpoint
# byte pins, concurrent ingest with kb/shares/stats/checkpoint queries),
# where the TSan pass polices the serve engine's snapshot publication and
# the checkpoint encoder's reads of live sample buffers.
# The Release flavour finishes with perf smokes: a small-trace
# bench_telemetry run that checks panel/legacy checksum identity, a
# bench_obs run that fails if enabling metrics+tracing costs more than 3%
# on the panel-mode analysis suite (median over many short interleaved
# reps of each rep's instrumented/disabled wall ratio), a bench_ingest
# decode smoke (parallel CSV decode bit-identical
# to serial), an end-to-end azure import smoke over the checked-in fixture
# (1-vs-8-thread report identity + warm cache hit), the bench_e2e smoke
# (the repo benchmark built standalone from bench_e2e/, checking its
# pinned report, figure, KB and advisor digests and the serve oracle on
# every pass), and a full-scale
# bench_population run — the out-of-core acceptance gate: generation +
# the whole analysis suite over record shards must stay under a peak-RSS
# cap while byte-matching a resident regeneration at 1 and 8 threads.
# Every smoke must leave its JSON document behind — a bench that silently
# emits nothing fails the run. The TSan flavour re-runs bench_population
# (no RSS gate — shadow memory dwarfs it) to police the record shard
# store's concurrent decode/evict paths, and bench_ingest to police the
# decode chunk fan-out.
# (The full-size numbers recorded in EXPERIMENTS.md come from
# `bench_telemetry --scale=0.1`, `bench_obs --scale=0.1`, and
# `bench_population` at its scale-1.0 defaults.)
#
# Usage: tools/ci.sh [build-root]       (default: ./ci-build)
# Environment: CTEST_PARALLEL_LEVEL (default 2), CLOUDLENS_CI_JOBS
# (default: nproc).
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_ROOT=${1:-"$ROOT/ci-build"}
JOBS=${CLOUDLENS_CI_JOBS:-$(nproc 2>/dev/null || echo 2)}
export CTEST_PARALLEL_LEVEL=${CTEST_PARALLEL_LEVEL:-2}
# Fail the TSan flavour on any report, and keep runs reproducible.
export TSAN_OPTIONS=${TSAN_OPTIONS:-"halt_on_error=1"}

run_flavour() {
    name=$1
    shift
    dir="$BUILD_ROOT/$name"
    echo "== [$name] configure =="
    cmake -S "$ROOT" -B "$dir" "$@" >/dev/null
    echo "== [$name] build (-j$JOBS) =="
    cmake --build "$dir" -j "$JOBS"
    echo "== [$name] ctest =="
    ctest --test-dir "$dir" --output-on-failure
    echo "== [$name] ctest names =="
    # A parameter type without PrintTo puts its raw bytes (padding
    # included) into the ctest names, so they change from build to build.
    if ctest --test-dir "$dir" -N | grep -q 'byte object'; then
        echo "ci: [$name] ctest names hold raw parameter bytes; give the" \
            "parameter type a PrintTo:" >&2
        ctest --test-dir "$dir" -N | grep 'byte object' >&2
        exit 1
    fi
    echo "== [$name] telemetry panel suites =="
    ctest --test-dir "$dir" --output-on-failure \
        -R 'TelemetryPanel|SampleContract|PearsonFused|PanelEquivalence'
    echo "== [$name] observability suites =="
    ctest --test-dir "$dir" --output-on-failure \
        -R 'ObsDeterminism|ObsMetrics|ObsSpan|ObsContext'
    echo "== [$name] snapshot + pipeline suites =="
    ctest --test-dir "$dir" --output-on-failure \
        -R 'Snapshot|ContentHash|ArtifactCache|TempDirTest|RunPlan|PipelineEquivalence|StageTable|KnowledgeBase|TraceIo'
    echo "== [$name] population shard suites =="
    # Out-of-core record store: snapshot/generator streaming round trips,
    # eviction budget, failure paths, and the resident-vs-sharded
    # byte-identity contract (the TSan pass polices the concurrent shard
    # acquire).
    ctest --test-dir "$dir" --output-on-failure \
        -R 'Population'
    echo "== [$name] serve suites =="
    # Streaming ingest: the event-stream format pins, the engine's
    # epoch/cutoff accounting, the streamed-vs-batch byte-identity
    # contract, and the concurrent ingest/query test (the TSan pass is
    # what polices the snapshot publication, the query caches and a
    # checkpoint under a live ingester).
    ctest --test-dir "$dir" --output-on-failure -R 'Serve'
    echo "== [$name] ingest suites =="
    # Trace ingest: strict field parsing (file:line:column errors, no
    # silent truncation), CRLF/LF identity, chunked parallel decode
    # bit-identity (the TSan pass polices the chunk fan-out), and the
    # exact fixture pins for the azure/google backends.
    ctest --test-dir "$dir" --output-on-failure -R 'Ingest'
}

# A bench smoke that exits 0 but writes no JSON is a silent no-op;
# require the document it promised.
require_json() {
    if [ ! -s "$1" ]; then
        echo "ci: bench smoke did not emit $1" >&2
        exit 1
    fi
}

run_flavour release -DCMAKE_BUILD_TYPE=Release -DCLOUDLENS_WERROR=ON
run_flavour tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCLOUDLENS_SANITIZE=thread

echo "== [tsan] ingest decode smoke =="
# Chunked parallel CSV decode under TSan: polices the superblock fan-out
# and the ordered merge. The checksum identity gate is binding; the
# speedup gate is off (sanitizer wall-clock is meaningless).
"$BUILD_ROOT/tsan/bench/bench_ingest" \
    --size-mb=4 --min-speedup=0 \
    --out="$BUILD_ROOT/BENCH_ingest_tsan_smoke.json"
require_json "$BUILD_ROOT/BENCH_ingest_tsan_smoke.json"

echo "== [tsan] population shard smoke =="
# Small record-sharded end-to-end pass under TSan: polices the population
# store's concurrent acquire/publish path while the full analysis suite
# streams shard-grouped records. RSS gate off (shadow memory dominates);
# the report/figure/kb checksum identity and paging gates still bind.
"$BUILD_ROOT/tsan/bench/bench_population" \
    --scale=0.02 --shards=4 --budget-mib=0 --rss-gate=0 \
    --out="$BUILD_ROOT/BENCH_population_tsan_smoke.json"
require_json "$BUILD_ROOT/BENCH_population_tsan_smoke.json"

# UBSan flavour (address+undefined plus float-cast-overflow): polices the
# AVX2 kernels' u64→f64 conversions and intrinsic shims, and every byte
# the CLSN container writer and reader, the shard seal, the shard decode
# and the kb artifact decode touch. Builds the full tree but runs only the
# kernel, stats, snapshot, population, run-plan and knowledge-base suites
# — the rest of the ctest pass under ASan is covered well enough by the
# two flavours above.
ubsan_dir="$BUILD_ROOT/ubsan"
echo "== [ubsan] configure =="
cmake -S "$ROOT" -B "$ubsan_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCLOUDLENS_SANITIZE=address >/dev/null
echo "== [ubsan] build (-j$JOBS) =="
cmake --build "$ubsan_dir" -j "$JOBS"
echo "== [ubsan] kernel, stats, snapshot, population, run-plan, kb + row-kernel suites =="
ubsan_suites='Kernel|StatsProperty|QuantileProperty|Correlation|Fft|Periodicity'
ubsan_suites="$ubsan_suites|Snapshot|Population|RunPlan|KnowledgeBase"
# The batch sample() loops walk signed SimTime boundaries.
ubsan_suites="$ubsan_suites|TelemetryPanel|SampleContract"
ctest --test-dir "$ubsan_dir" --output-on-failure -R "$ubsan_suites"

echo "== [release] telemetry perf smoke =="
"$BUILD_ROOT/release/bench/bench_telemetry" \
    --scale=0.02 --passes=1 --min-speedup=1.0 \
    --out="$BUILD_ROOT/BENCH_telemetry_smoke.json"
require_json "$BUILD_ROOT/BENCH_telemetry_smoke.json"

echo "== [release] observability overhead smoke =="
# Gates the median over 201 reps of each rep's instrumented/disabled wall
# ratio, the three configurations in rotating order inside each rep: on a
# 4-core VM single reps of this ~60 ms suite swing by ±15 %, and the
# median of 201 paired ratios keeps the reading within about ±1 %.
"$BUILD_ROOT/release/bench/bench_obs" \
    --scale=0.02 --passes=1 --reps=201 --max-overhead-pct=3.0 \
    --out="$BUILD_ROOT/BENCH_obs_smoke.json"
require_json "$BUILD_ROOT/BENCH_obs_smoke.json"

echo "== [release] population RSS budget smoke =="
# Record-sharded path at FULL scale: generation streams the VM records
# straight into population shards, the whole analysis suite runs over
# them under the decoded-bytes budget, peak RSS must stay under the cap,
# and the report/figure/kb checksums must byte-match a fully resident
# regeneration at 1 and 8 threads. This is the out-of-core acceptance
# gate, so it runs at scale 1.0 even in the smoke.
"$BUILD_ROOT/release/bench/bench_population" \
    --scale=1.0 --rss-limit-mib=512 \
    --out="$BUILD_ROOT/BENCH_population.json"
require_json "$BUILD_ROOT/BENCH_population.json"

echo "== [release] ingest decode smoke =="
# Small synthetic-CSV pass: parallel decode must be bit-identical to
# serial (FNV digest gate). No speedup gate here — CI machines are too
# noisy/small; the recorded numbers come from `bench_ingest
# --size-mb=120` (see BENCH_ingest.json and EXPERIMENTS.md).
"$BUILD_ROOT/release/bench/bench_ingest" \
    --size-mb=8 --min-speedup=0 \
    --out="$BUILD_ROOT/BENCH_ingest_smoke.json"
require_json "$BUILD_ROOT/BENCH_ingest_smoke.json"

echo "== [release] end-to-end benchmark smoke =="
# bench_e2e builds standalone from bench_e2e/ against ../src, exactly as
# BENCHMARK.json's runner builds it; --smoke runs every workload at scale
# 0.02 and fails unless the pinned report, figure, KB and advisor digests
# and the serve oracle all match.
e2e_dir="$BUILD_ROOT/bench_e2e"
cmake -S "$ROOT/bench_e2e" -B "$e2e_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$e2e_dir" --target bench_e2e -j "$JOBS"
rm -rf "$e2e_dir/work" && mkdir -p "$e2e_dir/work/tmp"
( cd "$e2e_dir/work" && TMPDIR="$e2e_dir/work/tmp" \
    "$e2e_dir/bench_e2e" --smoke --work-dir="$e2e_dir/work/smoke" )
rm -rf "$e2e_dir/work"

echo "== [release] azure import round-trip smoke =="
# Real-trace ingest end to end, no network (the fixture is checked in):
# the azure fixture must produce a byte-identical characterization
# report at 1 vs 8 decode threads, and a rerun against the warm cache
# must skip the decode entirely.
import_dir="$BUILD_ROOT/ingest-smoke"
rm -rf "$import_dir" && mkdir -p "$import_dir"
"$BUILD_ROOT/release/tools/cloudlens" import \
    --in "$ROOT/tests/fixtures/azure" --backend azure --threads 1 \
    --cache-dir "$import_dir/cache" \
    --report "$import_dir/report_t1.md" >/dev/null
"$BUILD_ROOT/release/tools/cloudlens" import \
    --in "$ROOT/tests/fixtures/azure" --backend azure --threads 8 \
    --cache-dir "$import_dir/cache8" \
    --report "$import_dir/report_t8.md" >/dev/null
cmp "$import_dir/report_t1.md" "$import_dir/report_t8.md"
"$BUILD_ROOT/release/tools/cloudlens" import \
    --in "$ROOT/tests/fixtures/azure" --backend azure \
    --cache-dir "$import_dir/cache" | grep -q "warm cache hit"

echo "ci: all flavours green"
