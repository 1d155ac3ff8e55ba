#!/usr/bin/env bash
# Builds the tree under sanitizers (the CALLIOPE_SANITIZE cmake option) with
# warnings as errors and runs the full tier-1 ctest suite under them once.
# Usage:
#
#   scripts/check_sanitize.sh [--tsan] [build-dir] [extra ctest args...]
#
# Default is ASan+UBSan in build-asan; --tsan switches to ThreadSanitizer in
# build-tsan (the simulator is single-threaded by design — TSan documents
# that and guards the few std::thread touchpoints in the harness).
# e.g. `scripts/check_sanitize.sh build-asan -R chaos` to sweep only the
# seeded chaos tests under the sanitizers. The one ctest pass covers every
# label (fidelity, sharing, slo, rebalance, load, ha, bench); the simulator is
# deterministic, so re-running a label under the same sanitizer finds
# nothing new.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="address;undefined"
DEFAULT_DIR="build-asan"
if [[ "${1:-}" == "--tsan" ]]; then
  SANITIZERS="thread"
  DEFAULT_DIR="build-tsan"
  shift
fi
BUILD_DIR="${1:-${DEFAULT_DIR}}"
shift || true

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-Werror \
  -DCALLIOPE_SANITIZE="${SANITIZERS}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error so ctest fails loudly instead of logging and limping on.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" "$@"
