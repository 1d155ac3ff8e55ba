#!/usr/bin/env bash
# Runs the overload-control acceptance test with tracing on — a ~2x-capacity
# workload (Zipf titles, channel surfers, archive pulls, record-while-play)
# with traffic control on (the SLO-driven governor sheds standard/bulk load
# with explicit notices while interactive sessions hold their lateness SLO)
# and off (the pending queue balloons and the depth SLO breaches) — and
# prints where the per-installation Chrome traces landed. Usage:
#
#   scripts/load_demo.sh [build-dir]
#
# Override the trace output path with CALLIOPE_TRACE=/path/to/trace.json.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${CALLIOPE_TRACE:-${PWD}/trace_load.json}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target load_test

# The test runs four installations, each writing its own suffixed trace:
# shedding on, shedding off, then the same pair again for the replay check.
CALLIOPE_TRACE="${OUT}" "${BUILD_DIR}/tests/load_test" \
  --gtest_filter='LoadTest.SaturationShedsOnlyLowerClassesAndHoldsInteractiveSlo'

echo
echo "Chrome traces written next to ${OUT}, one per installation in run order"
echo "(the first keeps the name, later ones insert .2, .3, .4 before the extension):"
ls -1 "${OUT%.*}"*
echo "Open them at https://ui.perfetto.dev (or chrome://tracing): shed-start/shed-clear"
echo "instants sit on the coordinator track, slo-breach instants on the slo track."
