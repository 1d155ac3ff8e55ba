#!/usr/bin/env bash
# How often the simulator calls malloc: runs one perfbench repetition under a
# malloc counter and prints malloc calls per fired simulator event and the
# busiest request sizes. Usage:
#
#   scripts/allocs.sh <workload> [seed]
#
# default seed 1. It builds perfbench the way perfbench/run.py does (into
# $CARGO_TARGET_DIR or .bench_build/) and changes nothing under perfbench/.
# The counter is a small LD_PRELOAD library built with gcc: malloc, calloc,
# realloc and free forward to glibc's __libc_* entry points and, in the
# perfbench process only, count their calls and malloc's request sizes in
# 16-byte classes (operator new is malloc underneath). The events are
# perfbench's own `sim.events`, so setup allocations are included in the
# numerator but no setup work adds events.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <graph1_packet|scale_flow_200|zipf_churn> [seed]" >&2
  exit 2
fi
WORKLOAD="$1"
SEED="${2:-1}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TARGET="${CARGO_TARGET_DIR:-.bench_build}"
[[ "${TARGET}" == /* ]] || TARGET="${ROOT}/${TARGET}"
cmake -S "${ROOT}/perfbench" -B "${TARGET}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${TARGET}" -j "$(nproc)" >/dev/null

WORK="$(mktemp -d "${TMPDIR:-/tmp}/allocs.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT
cat >"${WORK}/counter.c" <<'EOF'
#define _GNU_SOURCE
#include <errno.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* block, size_t size);
extern void __libc_free(void* block);

enum { kGranule = 16, kClasses = 256 };  // the last class holds everything larger
static unsigned long mallocs, callocs, reallocs, frees;
static unsigned long by_class[kClasses + 1];
static int armed;

static void Count(unsigned long* counter) { __atomic_fetch_add(counter, 1, __ATOMIC_RELAXED); }

void* malloc(size_t size) {
  if (armed) {
    Count(&mallocs);
    const size_t cls = size == 0 ? 0 : (size - 1) / kGranule;
    Count(&by_class[cls < kClasses ? cls : kClasses]);
  }
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  if (armed) {
    Count(&callocs);
  }
  return __libc_calloc(count, size);
}

void* realloc(void* block, size_t size) {
  if (armed) {
    Count(&reallocs);
  }
  return __libc_realloc(block, size);
}

void free(void* block) {
  if (armed && block != NULL) {
    Count(&frees);
  }
  __libc_free(block);
}

__attribute__((constructor)) static void Start(void) {
  const char* target = getenv("ALLOCS_TARGET");
  armed = target != NULL && strcmp(program_invocation_short_name, target) == 0;
}

__attribute__((destructor)) static void Stop(void) {
  if (!armed) {
    return;
  }
  armed = 0;
  FILE* out = fopen(getenv("ALLOCS_OUT"), "w");
  fprintf(out, "malloc %lu\ncalloc %lu\nrealloc %lu\nfree %lu\n", mallocs, callocs, reallocs,
          frees);
  for (int cls = 0; cls <= kClasses; ++cls) {
    if (by_class[cls] != 0) {
      fprintf(out, "class %d %lu\n", cls, by_class[cls]);
    }
  }
  fclose(out);
}
EOF
gcc -O2 -shared -fPIC -o "${WORK}/counter.so" "${WORK}/counter.c"

ALLOCS_TARGET=perfbench ALLOCS_OUT="${WORK}/counts" LD_PRELOAD="${WORK}/counter.so" \
  "${TARGET}/perfbench" --workload "${WORKLOAD}" --seed "${SEED}" >"${WORK}/out"
EVENTS="$(grep -o '"sim.events": [0-9]*' "${WORK}/out" | tr -dc '0-9')"

awk -v events="${EVENTS}" -v workload="${WORKLOAD}" -v seed="${SEED}" '
  $1 == "class" { count[$2] = $3; next }
  { total[$1] = $2 }
  END {
    printf "%s seed %s: %d events, %d malloc calls, %.3f per event\n", workload, seed,
           events, total["malloc"], total["malloc"] / events
    printf "  calloc %d, realloc %d, free %d\n", total["calloc"], total["realloc"], total["free"]
    print "  malloc calls by request size (top 10):"
    for (c in count) {
      label = c == 256 ? ">4096B" : sprintf("%d-%dB", c == 0 ? 0 : c * 16 + 1, c * 16 + 16)
      printf "  %12s %11d %6.1f%% %7.3f/event\n", label, count[c],
             100 * count[c] / total["malloc"], count[c] / events | "sort -k2 -rn | head -n 10"
    }
  }' "${WORK}/counts"
