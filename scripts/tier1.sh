#!/usr/bin/env sh
# Tier-1 CI gate. Fails on the first broken step.
#
#   1. release build + full test suite (the hard acceptance floor);
#   2. every bench binary builds in release (table/figure regeneration
#      and the obs_report smoke binary);
#   3. bmbe-obs builds clean under -D warnings (new crate, zero-warning
#      policy);
#   4. obs_report --check: runs a traced Stack flow + sim + verification
#      and validates the emitted Chrome trace / JSONL / span coverage;
#   5. fault smoke: an injected fault (BMBE_FAULT=synth:0, then one
#      inside prime generation, BMBE_FAULT=prime_gen:0:err) must fail
#      perf_report with a structured error line and a nonzero exit, and
#      the same binary must then pass clean; a simulation-compile fault
#      (BMBE_FAULT=sim_compile:0) must likewise fail sim_report;
#   6. perf smoke: in the clean pass's report, the Microprocessor core's
#      cold prime generation under the default backend must be at least
#      5x faster than under the exact prime-enumerating backend (the
#      seed behaviour; its recorded cold baseline was 0.0804 s);
#   7. sim perf smoke: in a fresh sim_report, the compiled backend's
#      batched 64-scenario Microprocessor-core run must beat the event
#      engine's aggregate events/s by at least 5x (per-lane parity with
#      the event oracle is asserted inside sim_report itself);
#   8. batch + persistent cache: a batch_report fleet over a scratch
#      BMBE_CACHE_DIR must emit pure-JSON stdout, synthesize each
#      distinct shape exactly once, and a second *process* over the same
#      cache directory must synthesize nothing and run the
#      Microprocessor core at least 3x faster than the cold process;
#   9. cache_io fault smoke: with BMBE_FAULT=cache_io:0:err the disk
#      layer degrades to misses and the same fleet must still succeed;
#  10. fleet trace correlation: two traced batch_report processes (cold,
#      then warm over the same scratch cache) each leave a
#      self-describing JSONL stream; trace_report --check validates every
#      line and must find a non-empty critical path rooted at batch.run
#      in the merged cold+warm trace;
#  11. perf-regression sentinel: bench_trend comparing the fresh
#      BENCH_flow.json / BENCH_sim.json from step 5/7 against the
#      committed baselines must pass, an injected structural
#      regression (controllers count bumped on a copy) must fail it,
#      and an empty baseline must produce the structured no-baseline
#      verdict (nonzero exit, explicit reason) instead of a vacuous
#      pass or a parse error;
#  12. differential gauntlet: a fixed-seed corpus slice of >= 200
#      generated designs (parametric families + random mini-Balsa
#      programs) must run clean through all four oracle pairs (compiled
#      vs event, on-the-fly vs materialized verification, serial vs
#      parallel, faulted vs clean), and an
#      injected divergence must be caught and reported as a structured
#      finding carrying its replay seed.
set -eu
cd "$(dirname "$0")/.."

echo "== tier1: build =="
cargo build --release

echo "== tier1: tests =="
cargo test -q

echo "== tier1: bench binaries =="
cargo build --release -p bmbe-bench --bins

echo "== tier1: bmbe-obs deny-warnings =="
cargo rustc -p bmbe-obs --release -- -D warnings

echo "== tier1: obs_report --check =="
BMBE_TRACE_OUT="${TMPDIR:-/tmp}/bmbe_tier1_trace.json" \
    cargo run --release -p bmbe-bench --bin obs_report -- --check >/dev/null

echo "== tier1: fault smoke =="
fault_err="${TMPDIR:-/tmp}/bmbe_tier1_fault.err"
for plan in synth:0 prime_gen:0:err; do
    if BMBE_FAULT="$plan" cargo run --release -p bmbe-bench --bin perf_report \
        >/dev/null 2>"$fault_err"; then
        echo "tier1: FAIL: perf_report succeeded under BMBE_FAULT=$plan" >&2
        exit 1
    fi
    if ! grep -q '^error: perf_report: ' "$fault_err"; then
        echo "tier1: FAIL: no structured error line under BMBE_FAULT=$plan" >&2
        cat "$fault_err" >&2
        exit 1
    fi
done
if BMBE_FAULT=sim_compile:0 cargo run --release -p bmbe-bench --bin sim_report \
    >/dev/null 2>"$fault_err"; then
    echo "tier1: FAIL: sim_report succeeded under BMBE_FAULT=sim_compile:0" >&2
    exit 1
fi
if ! grep -q '^error: sim_report: ' "$fault_err"; then
    echo "tier1: FAIL: no structured error line under BMBE_FAULT=sim_compile:0" >&2
    cat "$fault_err" >&2
    exit 1
fi
# The clean pass runs in a scratch directory so the checked-in
# BENCH_flow.json is not overwritten with this machine's timings.
fault_dir="$(mktemp -d)"
repo_root="$(pwd)"
(cd "$fault_dir" && cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin perf_report >/dev/null)

echo "== tier1: perf smoke (minimizer backend) =="
# Ratio gate, measured in one fresh report on this host (robust on slow
# machines, unlike an absolute wall-time bound): the default backend's
# cold prime_gen on the Microprocessor core must beat the exact backend
# by at least 5x.
micro_line="$(grep '"design": "Microprocessor' "$fault_dir/BENCH_flow.json")" || {
    echo "tier1: FAIL: no Microprocessor row in the fresh BENCH_flow.json" >&2
    exit 1
}
auto_s="$(printf '%s' "$micro_line" | sed 's/.*"auto_prime_gen_s": \([0-9.]*\).*/\1/')"
exact_s="$(printf '%s' "$micro_line" | sed 's/.*"exact_prime_gen_s": \([0-9.]*\).*/\1/')"
if ! awk -v a="$auto_s" -v e="$exact_s" \
    'BEGIN { exit !(a > 0 && e / a >= 5) }'; then
    echo "tier1: FAIL: Microprocessor cold prime_gen: default backend ${auto_s}s vs exact ${exact_s}s (< 5x)" >&2
    exit 1
fi
echo "tier1: Microprocessor cold prime_gen ${auto_s}s (default) vs ${exact_s}s (exact)"

echo "== tier1: sim perf smoke (compiled backend) =="
# Ratio gate on a fresh sim_report (same scratch directory): the compiled
# backend's batched 64-scenario Microprocessor run must clear 5x the
# event engine's aggregate events/s. sim_report asserts per-lane parity
# with the event oracle before timing, so this pass also re-proves the
# differential property on this host.
(cd "$fault_dir" && cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin sim_report >/dev/null)
micro_sim_line="$(grep '"compiled_vs_event"' "$fault_dir/BENCH_sim.json" \
    | grep '"design": "Microprocessor')" || {
    echo "tier1: FAIL: no Microprocessor backends row in the fresh BENCH_sim.json" >&2
    exit 1
}
ratio="$(printf '%s' "$micro_sim_line" | sed 's/.*"compiled_vs_event": \([0-9.]*\).*/\1/')"
if ! awk -v r="$ratio" 'BEGIN { exit !(r >= 5) }'; then
    echo "tier1: FAIL: Microprocessor batched compiled_vs_event ${ratio}x (< 5x)" >&2
    exit 1
fi
echo "tier1: Microprocessor batched compiled backend ${ratio}x the event engine"
# $fault_dir keeps its fresh BENCH_flow.json / BENCH_sim.json for the
# bench_trend gate below.

echo "== tier1: batch driver + persistent disk cache =="
# Scratch cache directory: the gate must never read or pollute a real
# BMBE_CACHE_DIR the developer has configured.
cache_dir="$(mktemp -d)"
batch_cold="${TMPDIR:-/tmp}/bmbe_tier1_batch_cold.jsonl"
batch_warm="${TMPDIR:-/tmp}/bmbe_tier1_batch_warm.jsonl"
BMBE_CACHE_DIR="$cache_dir" cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 1 --sim-batch 0 >"$batch_cold"
# Pure-JSON stdout: every line is one JSON object.
if grep -qv '^{' "$batch_cold"; then
    echo "tier1: FAIL: batch_report stdout is not pure JSON:" >&2
    grep -v '^{' "$batch_cold" >&2
    exit 1
fi
# Exactly-once: the cold fleet synthesized each distinct shape once.
cold_summary="$(grep '"summary": true' "$batch_cold")"
distinct="$(printf '%s' "$cold_summary" | sed 's/.*"distinct_shapes": \([0-9]*\).*/\1/')"
cold_synth="$(printf '%s' "$cold_summary" | sed 's/.*"synthesized": \([0-9]*\).*/\1/')"
if [ "$distinct" != "$cold_synth" ] || [ "$cold_synth" = "0" ]; then
    echo "tier1: FAIL: cold batch synthesized $cold_synth of $distinct distinct shapes (must be all, exactly once)" >&2
    exit 1
fi
# Second process, same cache directory: everything resolves from disk.
BMBE_CACHE_DIR="$cache_dir" cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 1 --sim-batch 0 >"$batch_warm"
warm_synth="$(grep '"summary": true' "$batch_warm" | sed 's/.*"synthesized": \([0-9]*\).*/\1/')"
if [ "$warm_synth" != "0" ]; then
    echo "tier1: FAIL: warm cross-process batch re-synthesized $warm_synth shapes" >&2
    exit 1
fi
# The warm process's Microprocessor job must be at least 3x faster than
# the cold one's (disk decode vs full synthesis; measured ~8x here).
cold_s="$(grep '"job": "Microprocessor core#0"' "$batch_cold" | sed 's/.*"wall_s": \([0-9.]*\).*/\1/')"
warm_s="$(grep '"job": "Microprocessor core#0"' "$batch_warm" | sed 's/.*"wall_s": \([0-9.]*\).*/\1/')"
if ! awk -v c="$cold_s" -v w="$warm_s" 'BEGIN { exit !(w > 0 && c / w >= 3) }'; then
    echo "tier1: FAIL: Microprocessor warm disk-cache run ${warm_s}s vs cold ${cold_s}s (< 3x)" >&2
    exit 1
fi
echo "tier1: Microprocessor cold ${cold_s}s vs warm-disk ${warm_s}s (cross-process)"

echo "== tier1: cache_io fault smoke =="
# A faulted disk layer degrades to cache misses; the fleet must succeed.
fault_cache_dir="$(mktemp -d)"
if ! BMBE_FAULT=cache_io:0:err BMBE_CACHE_DIR="$fault_cache_dir" \
    cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 1 --sim-batch 0 >/dev/null; then
    echo "tier1: FAIL: batch_report failed under BMBE_FAULT=cache_io:0:err" >&2
    exit 1
fi
rm -rf "$cache_dir" "$fault_cache_dir"

echo "== tier1: fleet trace correlation + critical path =="
# A cold and a warm traced fleet over one scratch cache: each process
# leaves a self-describing JSONL stream (meta line carries its run ID),
# and the merged stream must analyze as one logical trace.
trace_dir="$(mktemp -d)"
BMBE_TRACE=1 BMBE_TRACE_OUT="$trace_dir/cold.json" BMBE_CACHE_DIR="$trace_dir/cache" \
    cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 2 --sim-batch 4 >/dev/null
BMBE_TRACE=1 BMBE_TRACE_OUT="$trace_dir/warm.json" BMBE_CACHE_DIR="$trace_dir/cache" \
    cargo run --release -p bmbe-bench --bin batch_report -- \
    --replicas 2 --sim-batch 4 >/dev/null
for stream in "$trace_dir/cold.jsonl" "$trace_dir/warm.jsonl"; do
    if [ ! -s "$stream" ]; then
        echo "tier1: FAIL: traced batch_report left no JSONL stream at $stream" >&2
        exit 1
    fi
done
# --check validates every JSONL line and requires a non-empty critical
# path; the report must root that path at the fleet's batch.run span.
trace_report_out="$trace_dir/trace_report.json"
cargo run --release -p bmbe-bench --bin trace_report -- --check \
    "$trace_dir/cold.jsonl" "$trace_dir/warm.jsonl" >"$trace_report_out"
if ! grep -q '"name": "batch.run"' "$trace_report_out"; then
    echo "tier1: FAIL: merged fleet critical path does not include batch.run" >&2
    cat "$trace_report_out" >&2
    exit 1
fi
echo "tier1: merged cold+warm fleet trace has a batch.run critical path"

echo "== tier1: perf-regression sentinel (bench_trend) =="
# The fresh reports generated by the perf smokes above must clear the
# committed baselines...
cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$fault_dir/BENCH_flow.json" --baseline-flow BENCH_flow.json \
    --sim "$fault_dir/BENCH_sim.json" --baseline-sim BENCH_sim.json >/dev/null
# ...and an injected structural regression on a copy must be caught.
sed 's/"controllers": 12/"controllers": 15/' BENCH_flow.json >"$trace_dir/regressed.json"
if cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$trace_dir/regressed.json" --baseline-flow BENCH_flow.json \
    --sim BENCH_sim.json --baseline-sim BENCH_sim.json >/dev/null; then
    echo "tier1: FAIL: bench_trend passed an injected controllers regression" >&2
    exit 1
fi
echo "tier1: bench_trend passes the committed baselines and catches the injected regression"
# An empty baseline is a structured no-baseline verdict, not a vacuous
# pass or a parse error.
printf '{}' >"$trace_dir/empty.json"
trend_out="$trace_dir/trend_no_baseline.json"
if cargo run --release -p bmbe-bench --bin bench_trend -- \
    --flow "$fault_dir/BENCH_flow.json" --baseline-flow "$trace_dir/empty.json" \
    --sim BENCH_sim.json --baseline-sim BENCH_sim.json >"$trend_out"; then
    echo "tier1: FAIL: bench_trend passed against an empty baseline" >&2
    exit 1
fi
if ! grep -q '"no_baseline": \[$' "$trend_out" || ! grep -q 'no comparable metric entries' "$trend_out"; then
    echo "tier1: FAIL: empty baseline did not produce a structured no_baseline verdict" >&2
    cat "$trend_out" >&2
    exit 1
fi
echo "tier1: bench_trend reports an empty baseline as a structured no-baseline verdict"
rm -rf "$fault_dir" "$trace_dir"

echo "== tier1: differential gauntlet (generated corpus) =="
# A fixed-seed corpus slice through all four oracle pairs, routed through
# a scratch disk cache (the realistic hit distribution ROADMAP item 3
# asks for). The report must be clean: zero findings, every pair
# exercised.
gauntlet_dir="$(mktemp -d)"
(cd "$gauntlet_dir" && BMBE_CACHE_DIR="$gauntlet_dir/cache" cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin gauntlet_report -- --seed 1 --designs 200 >/dev/null)
gauntlet_json="$gauntlet_dir/BENCH_gauntlet.json"
if ! grep -q '"designs": 200' "$gauntlet_json" \
    || ! grep -q '"all_pairs_exercised": true' "$gauntlet_json" \
    || ! grep -q '"findings": \[\]' "$gauntlet_json"; then
    echo "tier1: FAIL: gauntlet slice was not clean:" >&2
    cat "$gauntlet_json" >&2
    exit 1
fi
echo "tier1: 200-design gauntlet clean across all four oracle pairs"
# Injected-divergence smoke: a perturbed compiled outcome must be caught
# by the real detection path and reported with its replay seed.
if (cd "$gauntlet_dir" && cargo run --release \
    --manifest-path "$repo_root/Cargo.toml" \
    -p bmbe-bench --bin gauntlet_report -- --seed 1 --designs 20 --inject 7 >/dev/null 2>&1); then
    echo "tier1: FAIL: gauntlet_report passed with an injected divergence" >&2
    exit 1
fi
if ! grep -q '"oracle": "compiled_vs_event"' "$gauntlet_json" \
    || ! grep -q '"replay": "bmbe gauntlet --seed 1 --designs 20 --only ' "$gauntlet_json" \
    || ! grep -q '"seed": [0-9]' "$gauntlet_json"; then
    echo "tier1: FAIL: injected divergence not reported with a replay seed:" >&2
    cat "$gauntlet_json" >&2
    exit 1
fi
echo "tier1: injected divergence caught and reported with its replay seed"
rm -rf "$gauntlet_dir"

echo "tier1: all gates passed"
