#!/usr/bin/env bash
# Benchmark gate: build the experiment binary, run the engine/executor
# benchmark suite, and compare the fresh BENCH_rollout.json against the
# previous one. Regressions beyond the 20% thresholds FAIL the script
# (nonzero exit) unless --warn-only is given.
#
# Usage:
#   scripts/bench.sh               # full suite (512-trajectory micro, all experiments)
#   scripts/bench.sh --smoke       # reduced suite for CI (~seconds)
#   scripts/bench.sh --warn-only   # report regressions without failing
#   scripts/bench.sh --profile     # wrap the run in `perf record` (graceful no-op
#                                  # without perf); writes perf.data + a hot-symbol
#                                  # summary, and a flamegraph SVG when the
#                                  # stackcollapse/flamegraph tools are on PATH
#
# Wall-clock numbers vary with machine load, and single-core containers
# cannot show parallel speedup at all — use --warn-only on noisy runners,
# and treat a throughput failure as a prompt to re-run before believing
# it. Allocation counts are deterministic; a failure there is a real code
# change. Spec-level regression gates (per-metric thresholds against
# committed baselines) live in `specs/*.toml` and are checked by
# `laminar-experiments --spec`, which likewise exits nonzero on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=""
WARN_ONLY=""
PROFILE=""
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE="--smoke" ;;
        --warn-only) WARN_ONLY=1 ;;
        --profile) PROFILE=1 ;;
        *) echo "usage: $0 [--smoke] [--warn-only] [--profile]" >&2; exit 2 ;;
    esac
done

OUT=BENCH_rollout.json
PREV=""
if [ -f "$OUT" ]; then
    PREV="$(mktemp)"
    cp "$OUT" "$PREV"
fi

# Only the experiment binary is needed here, so build just its package.
cargo build --release -p laminar-bench

BENCH_CMD=(./target/release/laminar-experiments --bench $SMOKE --bench-out "$OUT")
if [ -n "$PROFILE" ]; then
    if command -v perf >/dev/null 2>&1; then
        # Call-graph sampling of the whole bench run (micro legs,
        # checkpoint and fleet profiles, e2e suite). dwarf unwinding keeps the inlined hot loop
        # attributable; fall back to frame pointers if dwarf is rejected.
        perf record -o perf.data --call-graph dwarf -- "${BENCH_CMD[@]}" \
            || perf record -o perf.data -g -- "${BENCH_CMD[@]}"
        perf report -i perf.data --stdio --percent-limit 1 > perf.report.txt || true
        echo "bench: profile written to perf.data (top symbols: perf.report.txt)"
        # Flamegraph is best-effort: only when Brendan Gregg's scripts (or
        # inferno's drop-in equivalents) are installed.
        if command -v stackcollapse-perf.pl >/dev/null 2>&1 && command -v flamegraph.pl >/dev/null 2>&1; then
            perf script -i perf.data | stackcollapse-perf.pl | flamegraph.pl > bench-flame.svg \
                && echo "bench: flamegraph written to bench-flame.svg"
        elif command -v inferno-collapse-perf >/dev/null 2>&1 && command -v inferno-flamegraph >/dev/null 2>&1; then
            perf script -i perf.data | inferno-collapse-perf | inferno-flamegraph > bench-flame.svg \
                && echo "bench: flamegraph written to bench-flame.svg"
        else
            echo "bench: no flamegraph tooling on PATH (stackcollapse-perf.pl/flamegraph.pl or inferno); skipping SVG"
        fi
    else
        echo "bench: --profile requested but perf is not installed; running unprofiled" >&2
        "${BENCH_CMD[@]}"
    fi
else
    "${BENCH_CMD[@]}"
fi

# The checkpoint block (schema 4) carries the delta-equivalence verdict:
# the delta-checkpointed run, every manifest-chain + fingerprint
# verification, and every resume must have matched the uninterrupted run
# byte-for-byte. Unlike wall-clock numbers this can never be machine
# noise, so it fails even under --warn-only.
if grep -q '"delta_identical": false' "$OUT"; then
    echo "bench: FAILURE delta checkpoints diverged from whole-state run (checkpoint.delta_identical = false)" >&2
    exit 1
fi

# The fleet block (schema 5) carries the jobs-invariance verdict: the
# fleet-chaos sweep must serialize to byte-identical rows JSONL at
# --jobs 1 and at a parallel job count. Deterministic by design, so it
# likewise fails even under --warn-only.
if grep -q '"jobs_deterministic": false' "$OUT"; then
    echo "bench: FAILURE fleet sweep diverged across job counts (fleet.jobs_deterministic = false)" >&2
    exit 1
fi

REGRESSED=0
if [ -n "$PREV" ]; then
    # Fail if the indexed-engine events/sec dropped more than 20% versus the
    # previous run (same-mode comparisons only are meaningful, but a cross-mode
    # diff still catches order-of-magnitude breakage).
    old=$(sed -n 's/.*"indexed_events_per_sec": \([0-9.]*\).*/\1/p' "$PREV")
    new=$(sed -n 's/.*"indexed_events_per_sec": \([0-9.]*\).*/\1/p' "$OUT")
    if [ -n "$old" ] && [ -n "$new" ]; then
        drop=$(awk -v o="$old" -v n="$new" 'BEGIN { print (n < 0.8 * o) ? 1 : 0 }')
        if [ "$drop" = "1" ]; then
            echo "bench: REGRESSION indexed engine: $old -> $new events/sec (>20% drop)" >&2
            REGRESSED=1
        else
            echo "bench: indexed engine $old -> $new events/sec (ok)"
        fi
    fi
    # Allocation regression: same 20% rule on allocs-per-event, per engine
    # leg. Unlike wall clock these counts are deterministic, so a jump is a
    # real code change, not machine noise. Silently skipped when the previous
    # report predates schema 2 (sed finds no field) or when either run had
    # the counting allocator inactive (columns read 0.000).
    for leg in indexed traced; do
        old=$(sed -n "s/.*\"${leg}_allocs_per_event\": \([0-9.]*\).*/\1/p" "$PREV")
        new=$(sed -n "s/.*\"${leg}_allocs_per_event\": \([0-9.]*\).*/\1/p" "$OUT")
        if [ -n "$old" ] && [ -n "$new" ]; then
            grew=$(awk -v o="$old" -v n="$new" 'BEGIN { print (o > 0 && n > 0 && n > 1.2 * o) ? 1 : 0 }')
            if [ "$grew" = "1" ]; then
                echo "bench: REGRESSION $leg engine allocations grew: $old -> $new allocs/event (>20%)" >&2
                REGRESSED=1
            else
                echo "bench: $leg engine $old -> $new allocs/event (ok)"
            fi
        fi
    done
    # Checkpoint-cost regression: delta bytes persisted per cadence point
    # may not grow more than 20% versus the previous run. The encoder is
    # deterministic, so growth is a real state-image layout change —
    # regenerate spec baselines alongside an intentional one. Silently
    # skipped when the previous report predates schema 4.
    old=$(sed -n 's/.*"delta_bytes_per_point": \([0-9.]*\).*/\1/p' "$PREV")
    new=$(sed -n 's/.*"delta_bytes_per_point": \([0-9.]*\).*/\1/p' "$OUT")
    if [ -n "$old" ] && [ -n "$new" ]; then
        grew=$(awk -v o="$old" -v n="$new" 'BEGIN { print (o > 0 && n > 1.2 * o) ? 1 : 0 }')
        if [ "$grew" = "1" ]; then
            echo "bench: REGRESSION delta checkpoint cost grew: $old -> $new bytes/point (>20%)" >&2
            REGRESSED=1
        else
            echo "bench: delta checkpoints $old -> $new bytes/point (ok)"
        fi
    fi
    rm -f "$PREV"
fi
echo "bench: report written to $OUT"
if [ "$REGRESSED" = "1" ]; then
    if [ -n "$WARN_ONLY" ]; then
        echo "bench: regression gate FAILED (continuing: --warn-only)" >&2
    else
        echo "bench: regression gate FAILED" >&2
        exit 1
    fi
fi
