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
#
# Usage:
#   tests/golden/check_golden.sh fig11 <fig11_saf binary> <work dir>
#   tests/golden/check_golden.sh crash <crash_recovery_bench binary> <work dir>
#
# The fresh outputs stay in the work dir. On a mismatch the script
# names the produced file; copying it over the golden is a behaviour
# change: argue it in CHANGES.md, never fold it into a refactor.

set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 fig11|crash <binary> <work dir>" >&2
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
*)
    echo "$0: unknown mode '${mode}'" >&2
    exit 2
    ;;
esac
echo "golden ${mode}: byte-identical"
