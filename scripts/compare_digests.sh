#!/usr/bin/env bash
# Same-behaviour oracle: runs every perfbench workload on a base revision and
# on the working tree and compares their ClusterReport digests.
# Usage:
#
#   scripts/compare_digests.sh <base-rev>
#
# The base revision is extracted with `git archive` into a temporary
# directory. Each side builds perfbench into its own $CARGO_TARGET_DIR: the
# base into the temporary directory, the working tree into its usual
# .bench_build/. Every workload runs for seeds 1 and 7919 with
# `perfbench/run.py --seconds 5`. The script prints one line per run with
# both digests and exits 1 if any pair differs or any run produced no digest.
# It reads perfbench/ and changes nothing in it.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
BASE_REV="$1"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOADS=(graph1_packet scale_flow_200 zipf_churn)
SEEDS=(1 7919)

BASE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/compare_digests.XXXXXX")"
trap 'rm -rf "${BASE_DIR}"' EXIT
git -C "${ROOT}" archive "${BASE_REV}" | tar -x -C "${BASE_DIR}"

# Prints the digest of one run, or "none" if the run printed no digest.
digest() {
  local tree="$1" target="$2" workload="$3" seed="$4" out
  out="$(CARGO_TARGET_DIR="${target}" python3 "${tree}/perfbench/run.py" \
           --workload "${workload}" --seed "${seed}" --seconds 5 --trace 0 || true)"
  sed -n 's/^report digest //p' <<<"${out}" | tail -n 1 | grep . || echo none
}

mismatches=0
printf '%-16s %6s  %-18s %-18s\n' workload seed base working-tree
for workload in "${WORKLOADS[@]}"; do
  for seed in "${SEEDS[@]}"; do
    base="$(digest "${BASE_DIR}" "${BASE_DIR}/.bench_build" "${workload}" "${seed}")"
    head="$(digest "${ROOT}" "${ROOT}/.bench_build" "${workload}" "${seed}")"
    verdict="same"
    if [[ "${base}" == "none" || "${base}" != "${head}" ]]; then
      verdict="DIFFERENT"
      mismatches=$((mismatches + 1))
    fi
    printf '%-16s %6s  %-18s %-18s %s\n' "${workload}" "${seed}" "${base}" "${head}" "${verdict}"
  done
done

if [[ ${mismatches} -ne 0 ]]; then
  echo "${mismatches} digest pair(s) differ from ${BASE_REV}" >&2
  exit 1
fi
echo "all digests match ${BASE_REV}"
