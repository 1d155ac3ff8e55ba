#!/usr/bin/env bash
# Runs the flash-crowd rebalancing acceptance test with tracing on — the same
# crowd of viewers against the background rebalancer (the hot title is copied
# to the idle MSU and the queue drains) and against a static replica set (the
# overflow starves) — and prints where the per-installation Chrome traces
# landed. Usage:
#
#   scripts/rebalance_demo.sh [build-dir]
#
# Override the trace output path with CALLIOPE_TRACE=/path/to/trace.json.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${CALLIOPE_TRACE:-${PWD}/trace_rebalance.json}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target rebalance_test

# The test runs two installations, each writing its own suffixed trace:
# rebalancing on, then the static replica set.
CALLIOPE_TRACE="${OUT}" "${BUILD_DIR}/tests/rebalance_test" \
  --gtest_filter='RebalanceTest.FlashCrowdConvergesOnlyWithRebalancing'

echo
echo "Chrome traces written next to ${OUT}, one per installation in run order"
echo "(the first keeps the name, the second inserts .2 before the extension):"
ls -1 "${OUT%.*}"*
echo "Open them at https://ui.perfetto.dev (or chrome://tracing)."
