#!/usr/bin/env bash
#
# Tier-1 gate: configure, build and test the presets that guard the
# repo's correctness story.
#
#   default  RelWithDebInfo, the full suite
#   asan     ASan+UBSan, the full suite
#   tsan     ThreadSanitizer, the concurrency suites
#            (TaskPool*/SweepRunner*/Telemetry*/IngestReplay* and
#            the other suites named in the preset's filter — the
#            sweep runner, its pool, watchdog, cancellation,
#            checkpoint/resume paths and the per-thread
#            telemetry cells; replays themselves are serial,
#            parallelism exists only across sweep cells)
#
# The extra mode `bench-smoke` builds the default preset's
# perf_extent_map / perf_simulator benchmarks and runs them at
# reduced iterations, writing BENCH_extent_map.smoke.json — a quick
# sanity check that the translation hot path still beats the
# preserved std::map reference. The mode fails when any level's
# mapSpeedup (the tree's mapRange against the std::map reference on
# the same box) is below 1.0 (CI uploads the file as an artifact;
# the checked-in BENCH_extent_map.json is regenerated manually at
# full iterations). The smoke artifact records the box's nproc so
# a ~1x parallel speedup on a 1-CPU runner is not misread as a
# regression. A golden leg then runs fig11_saf 0.002 --jobs 1,
# crash_recovery_bench, device_fault_sweep 0.002
# --fault-rate=0.01 --jobs 1 and compare_translation_layers 0.002
# --jobs 1 and the paper-figure harnesses (table1_workloads and
# fig2/3/4/5/7/8/10 at 0.002 --jobs 1) through
# tests/golden/check_golden.sh and diffs their deterministic output
# (the Figure 11 table, the crash-matrix summary, the device fault
# table, the translation-layer table, the paper-figure tables, the
# JSON reports with timing fields stripped) byte for byte against
# the goldens checked in under tests/golden/ — an absolute check,
# so a change that moves every cell the same way still fails.
#
# The extra mode `fault-smoke` builds device_fault_sweep under the
# asan preset and runs the fault matrix at small scale with an
# elevated fault rate, writing BENCH_device_faults.smoke.json — so
# the zoned-device recovery paths (retry, zone resets, degraded
# reads) execute under ASan+UBSan on every push. It then diffs the
# sanitized device_fault_sweep 0.002 --fault-rate=0.01 --jobs 1
# table and JSON byte for byte against tests/golden/ (check_golden.sh
# device) and runs the ZonedDevice* suites, so the memoised fault
# scan is checked against the golden and the per-sector reference
# reader under ASan+UBSan.
#
# The extra mode `crash-smoke` builds crash_recovery_bench under
# the asan preset and runs the reduced crash matrix (power-loss
# injection, log-scan remount, fsck, oracle equivalence), writing
# BENCH_crash_recovery.smoke.json, then runs the CrashRecovery
# differential suite — so every recovery path executes under
# ASan+UBSan on every push.
#
# The extra mode `gc-smoke` builds gc_ablation under the default
# preset and runs the cleaning-policy × stream-count × utilization
# grid at small scale, writing BENCH_gc_ablation.smoke.json, then
# reruns it with --jobs 2 and diffs the two reports — the grid has
# no timing fields, so the diff proves every GC cell is
# byte-identical across sweep parallelism — and finally diffs the
# report against tests/golden/gc_ablation.json, an absolute check
# (the checked-in BENCH_gc_ablation.json is regenerated manually at
# full scale). It also runs cleaning_interaction 0.002 --jobs 1
# through tests/golden/check_golden.sh cleaning: the only harness
# that drives finite-log relocation (defrag) and cleaning under all
# three policies.
#
# The extra mode `ingest-smoke` builds perf_ingest and
# trace_convert under the default preset, converts a sample MSR CSV
# to LSKC and byte-diffs a reconversion (cmp — the converter must
# be deterministic), then runs the reduced ingestion benchmark,
# writing BENCH_ingest.smoke.json. perf_ingest exits non-zero when
# the LSKC mmap-open >= 10x CSV-parse contract, the zero-copy
# replay byte-identity, or the streaming-generator flat-RSS assert
# fails, so all three gate CI (the checked-in BENCH_ingest.json is
# regenerated manually at full iterations).
#
# Usage:
#   scripts/tier1.sh            # all three presets
#   scripts/tier1.sh default    # just one
#   scripts/tier1.sh bench-smoke
#   scripts/tier1.sh fault-smoke
#   scripts/tier1.sh crash-smoke
#   scripts/tier1.sh gc-smoke
#   scripts/tier1.sh ingest-smoke
#   JOBS=8 scripts/tier1.sh     # override the build parallelism
#
# Scratch files (golden outputs, the --jobs 2 report, the ingest
# sample) go to one private mktemp directory per run, removed on
# exit, so concurrent runs cannot clobber each other.

set -euo pipefail

cd "$(dirname "$0")/.."

SCRATCH="$(mktemp -d "${TMPDIR:-/tmp}/tier1.XXXXXX")"
trap 'rm -rf "${SCRATCH}"' EXIT

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
PRESETS=("$@")
if [ "${#PRESETS[@]}" -eq 0 ]; then
    PRESETS=(default asan tsan)
fi

run_bench_smoke() {
    echo "==> tier1: bench-smoke"
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" \
        --target perf_extent_map perf_simulator
    build/bench/perf_extent_map \
        --json=BENCH_extent_map.smoke.json --translate-iters=50000
    python3 - BENCH_extent_map.smoke.json <<'PY'
import json, sys
levels = json.load(open(sys.argv[1]))["extent_map"]["levels"]
slow = [level for level in levels if level["mapSpeedup"] < 1.0]
for level in slow:
    print("tier1: mapRange slower than the std::map reference at "
          "%d entries: mapSpeedup %.3f" % (level["entries"],
                                           level["mapSpeedup"]))
sys.exit(1 if slow else 0)
PY
    build/bench/perf_simulator \
        --json=BENCH_extent_map.smoke.json --ops=20000 --reps=1
    echo "{\"nproc\": $(nproc 2>/dev/null || echo 1)}" \
        > BENCH_nproc.smoke.json

    # Golden diff: the paper harnesses end-to-end through the real
    # CLI, compared byte for byte with the checked-in goldens
    # (timing fields stripped).
    local paper=(table1_workloads fig2_seek_counts fig3_seek_timeseries
                 fig4_access_distance fig5_fragmented_reads
                 fig7_write_patterns fig8_misordered
                 fig10_fragment_popularity)
    cmake --build --preset default -j "${JOBS}" \
        --target fig11_saf crash_recovery_bench device_fault_sweep \
        compare_translation_layers "${paper[@]}"
    tests/golden/check_golden.sh fig11 build/bench/fig11_saf \
        "${SCRATCH}/golden"
    tests/golden/check_golden.sh crash \
        build/bench/crash_recovery_bench "${SCRATCH}/golden"
    tests/golden/check_golden.sh device \
        build/bench/device_fault_sweep "${SCRATCH}/golden"
    tests/golden/check_golden.sh layers \
        build/bench/compare_translation_layers "${SCRATCH}/golden"
    local harness
    for harness in "${paper[@]}"; do
        tests/golden/check_golden.sh paper "build/bench/${harness}" \
            "${SCRATCH}/golden"
    done
    echo "==> tier1: golden outputs byte-identical"
}

run_fault_smoke() {
    echo "==> tier1: fault-smoke"
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" \
        --target device_fault_sweep disk_tests
    build-asan/bench/device_fault_sweep 0.002 \
        --fault-rate=0.01 --jobs=2 \
        --json=BENCH_device_faults.smoke.json
    tests/golden/check_golden.sh device \
        build-asan/bench/device_fault_sweep "${SCRATCH}/golden"
    ctest --test-dir build-asan -R "ZonedDevice" \
        --output-on-failure -j "${JOBS}"
}

run_crash_smoke() {
    echo "==> tier1: crash-smoke"
    cmake --preset asan
    cmake --build --preset asan -j "${JOBS}" \
        --target crash_recovery_bench stl_tests
    build-asan/bench/crash_recovery_bench \
        --json=BENCH_crash_recovery.smoke.json
    ctest --test-dir build-asan -R "CrashRecovery" \
        --output-on-failure -j "${JOBS}"
}

run_gc_smoke() {
    echo "==> tier1: gc-smoke"
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" \
        --target gc_ablation cleaning_interaction
    build/bench/gc_ablation 0.002 --jobs 1 \
        --json=BENCH_gc_ablation.smoke.json > /dev/null
    build/bench/gc_ablation 0.002 --jobs 2 \
        --json="${SCRATCH}/gc_jobs2.json" > /dev/null
    diff BENCH_gc_ablation.smoke.json "${SCRATCH}/gc_jobs2.json"
    echo "==> tier1: gc-smoke byte-identical across --jobs"
    diff -u tests/golden/gc_ablation.json BENCH_gc_ablation.smoke.json
    echo "==> tier1: gc-smoke byte-identical to the golden"
    tests/golden/check_golden.sh cleaning \
        build/bench/cleaning_interaction "${SCRATCH}/golden"
}

run_ingest_smoke() {
    echo "==> tier1: ingest-smoke"
    cmake --preset default
    cmake --build --preset default -j "${JOBS}" \
        --target perf_ingest trace_convert
    # Conversion determinism: CSV -> LSKC, then LSKC -> LSKC again;
    # the canonicalizing reconversion must be byte-identical.
    sample="${SCRATCH}/ingest_sample.csv"
    printf '%s\n' \
        '128166372003640000,hm,0,Read,328452096,8192,1547' \
        '128166372004137000,hm,0,Write,2216429568,4096,388' \
        '128166372016260000,hm,0,Read,328497152,16384,723' \
        > "${sample}"
    build/bench/trace_convert "${sample}" \
        --convert-out "${SCRATCH}/ingest.lskc"
    build/bench/trace_convert "${SCRATCH}/ingest.lskc" \
        --convert-out "${SCRATCH}/ingest2.lskc" --out-format lskc
    cmp "${SCRATCH}/ingest.lskc" "${SCRATCH}/ingest2.lskc"
    echo "==> tier1: ingest-smoke conversion byte-identical"
    # The benchmark asserts its own contracts (>= 10x mmap-open,
    # replay byte-identity, flat streaming RSS) and fails the gate
    # via its exit code.
    build/bench/perf_ingest --smoke \
        --json=BENCH_ingest.smoke.json
}

for preset in "${PRESETS[@]}"; do
    if [ "${preset}" = "bench-smoke" ]; then
        run_bench_smoke
        continue
    fi
    if [ "${preset}" = "ingest-smoke" ]; then
        run_ingest_smoke
        continue
    fi
    if [ "${preset}" = "gc-smoke" ]; then
        run_gc_smoke
        continue
    fi
    if [ "${preset}" = "fault-smoke" ]; then
        run_fault_smoke
        continue
    fi
    if [ "${preset}" = "crash-smoke" ]; then
        run_crash_smoke
        continue
    fi
    echo "==> tier1: preset '${preset}'"
    cmake --preset "${preset}"
    cmake --build --preset "${preset}" -j "${JOBS}"
    ctest --preset "${preset}" -j "${JOBS}"
done

echo "==> tier1: all presets green (${PRESETS[*]})"
