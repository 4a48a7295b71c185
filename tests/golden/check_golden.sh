#!/usr/bin/env bash
#
# Byte-compares a paper harness's deterministic output against the
# golden checked in next to this script.
#
#   fig11  fig11_saf 0.002 --jobs 1: the stdout table
#          (fig11_saf.txt) and the JSON report with its timing
#          fields stripped (fig11_saf.json)
#   crash  crash_recovery_bench at its defaults: the JSON summary
#          (crash_recovery_bench.json; it has no timing fields)
#   device device_fault_sweep 0.002 --fault-rate=0.01 --jobs 1: the
#          stdout table (device_fault_sweep.txt) and the JSON report
#          with its timing fields stripped (device_fault_sweep.json)
#   layers compare_translation_layers 0.002 --jobs 1: the stdout
#          table (compare_translation_layers.txt) and the JSON report
#          with its timing fields stripped
#          (compare_translation_layers.json)
#   gc     gc_ablation 0.002 --jobs 1: the JSON report
#          (gc_ablation.json; it has no timing fields)
#   cleaning cleaning_interaction 0.002 --jobs 1: the stdout table
#          (cleaning_interaction.txt) and the JSON report with its
#          timing fields stripped (cleaning_interaction.json); the
#          only harness that drives finite-log relocation (defrag)
#          and cleaning under all three policies
#   paper  one of the paper-figure harnesses (table1_workloads,
#          fig2_seek_counts, fig3_seek_timeseries,
#          fig4_access_distance, fig5_fragmented_reads,
#          fig7_write_patterns, fig8_misordered,
#          fig10_fragment_popularity) at 0.002 --jobs 1, named by
#          the binary's file name: the stdout table (<name>.txt)
#          and, for the harnesses that write one, the JSON report
#          with its timing fields stripped (<name>.json); table1,
#          fig7 and fig8 write no JSON
#
# Usage:
#   tests/golden/check_golden.sh fig11 <fig11_saf binary> <work dir>
#   tests/golden/check_golden.sh crash <crash_recovery_bench binary> <work dir>
#   tests/golden/check_golden.sh device <device_fault_sweep binary> <work dir>
#   tests/golden/check_golden.sh layers <compare_translation_layers binary> <work dir>
#   tests/golden/check_golden.sh gc <gc_ablation binary> <work dir>
#   tests/golden/check_golden.sh cleaning <cleaning_interaction binary> <work dir>
#   tests/golden/check_golden.sh paper <paper-figure harness binary> <work dir>
#
# The fresh outputs stay in the work dir. On a mismatch the script
# names the produced file; copying it over the golden is a behaviour
# change: argue it in CHANGES.md, never fold it into a refactor.

set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 fig11|crash|device|layers|gc|cleaning|paper <binary> <work dir>" >&2
    exit 2
fi
mode="$1"
binary="$2"
work="$3"
golden="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "${work}"

# The timing fields are the only run-to-run variation in the sweep
# JSON: the telemetry line and each row's wallSec/opsPerSec pair.
strip_timing() {
    sed -e '/"telemetry":/d' \
        -e 's/, "wallSec": [^,}]*, "opsPerSec": [^}]*//' "$1"
}

check() {
    local want="$1" got="$2"
    if ! diff -u "${want}" "${got}"; then
        echo "golden mismatch: ${want} (produced: ${got})" >&2
        return 1
    fi
}

case "${mode}" in
fig11)
    "${binary}" 0.002 --jobs 1 --json="${work}/fig11_saf.raw.json" \
        > "${work}/fig11_saf.txt"
    strip_timing "${work}/fig11_saf.raw.json" > "${work}/fig11_saf.json"
    check "${golden}/fig11_saf.txt" "${work}/fig11_saf.txt"
    check "${golden}/fig11_saf.json" "${work}/fig11_saf.json"
    ;;
crash)
    "${binary}" --json="${work}/crash_recovery_bench.json" > /dev/null
    check "${golden}/crash_recovery_bench.json" \
        "${work}/crash_recovery_bench.json"
    ;;
device)
    "${binary}" 0.002 --fault-rate=0.01 --jobs 1 \
        --json="${work}/device_fault_sweep.raw.json" \
        > "${work}/device_fault_sweep.txt"
    strip_timing "${work}/device_fault_sweep.raw.json" \
        > "${work}/device_fault_sweep.json"
    check "${golden}/device_fault_sweep.txt" \
        "${work}/device_fault_sweep.txt"
    check "${golden}/device_fault_sweep.json" \
        "${work}/device_fault_sweep.json"
    ;;
layers)
    "${binary}" 0.002 --jobs 1 \
        --json="${work}/compare_translation_layers.raw.json" \
        > "${work}/compare_translation_layers.txt"
    strip_timing "${work}/compare_translation_layers.raw.json" \
        > "${work}/compare_translation_layers.json"
    check "${golden}/compare_translation_layers.txt" \
        "${work}/compare_translation_layers.txt"
    check "${golden}/compare_translation_layers.json" \
        "${work}/compare_translation_layers.json"
    ;;
gc)
    "${binary}" 0.002 --jobs 1 --json="${work}/gc_ablation.json" \
        > /dev/null
    check "${golden}/gc_ablation.json" "${work}/gc_ablation.json"
    ;;
cleaning)
    "${binary}" 0.002 --jobs 1 \
        --json="${work}/cleaning_interaction.raw.json" \
        > "${work}/cleaning_interaction.txt"
    strip_timing "${work}/cleaning_interaction.raw.json" \
        > "${work}/cleaning_interaction.json"
    check "${golden}/cleaning_interaction.txt" \
        "${work}/cleaning_interaction.txt"
    check "${golden}/cleaning_interaction.json" \
        "${work}/cleaning_interaction.json"
    ;;
paper)
    name="$(basename "${binary}")"
    "${binary}" 0.002 --jobs 1 --json="${work}/${name}.raw.json" \
        > "${work}/${name}.txt"
    check "${golden}/${name}.txt" "${work}/${name}.txt"
    if [ -f "${golden}/${name}.json" ]; then
        strip_timing "${work}/${name}.raw.json" \
            > "${work}/${name}.json"
        check "${golden}/${name}.json" "${work}/${name}.json"
    elif [ -e "${work}/${name}.raw.json" ]; then
        echo "golden missing: ${golden}/${name}.json" >&2
        exit 1
    fi
    ;;
*)
    echo "$0: unknown mode '${mode}'" >&2
    exit 2
    ;;
esac
echo "golden ${mode}${name:+ ${name}}: byte-identical"
