#!/usr/bin/env bash
# Where the simulator's host time goes: samples one perfbench workload with
# a SIGPROF sampler and prints each function's inclusive and self share of
# the samples. Usage:
#
#   scripts/profile.sh <workload> [seed] [runs]
#
# defaults: seed 1, 1 run; each table shows the top 25 functions. It builds
# perfbench the way perfbench/run.py does (into $CARGO_TARGET_DIR or
# .bench_build/) and changes nothing under perfbench/. The sampler is a small
# LD_PRELOAD library built with gcc: an ITIMER_PROF timer (1 ms of process
# CPU time) armed only in the perfbench process, backtrace() in the SIGPROF
# handler, and at exit the samples as raw addresses plus every distinct
# address's object and offset. Each run is one repetition of the workload
# under `setarch -R`, so addresses are equal across runs and their samples
# merge; addr2line symbolizes the merged set. Frames in libraries without
# debug symbols (libc) carry the nearest exported name.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <graph1_packet|scale_flow_200|zipf_churn> [seed] [runs]" >&2
  exit 2
fi
WORKLOAD="$1"
SEED="${2:-1}"
RUNS="${3:-1}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TARGET="${CARGO_TARGET_DIR:-.bench_build}"
[[ "${TARGET}" == /* ]] || TARGET="${ROOT}/${TARGET}"
cmake -S "${ROOT}/perfbench" -B "${TARGET}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${TARGET}" -j "$(nproc)" >/dev/null

WORK="$(mktemp -d "${TMPDIR:-/tmp}/profile.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT
cat >"${WORK}/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

enum { kWords = 1 << 22, kDepth = 64 };
static void* words[kWords];  // per sample: its depth, then its frames
static size_t used;
static int armed;

static void OnProf(int sig) {
  (void)sig;
  const int saved = errno;
  if (used + kDepth + 1 <= kWords) {
    const int depth = backtrace(&words[used + 1], kDepth);
    words[used] = (void*)(long)depth;
    used += (size_t)depth + 1;
  }
  errno = saved;
}

static int ByAddress(const void* a, const void* b) {
  const char* x = *(char* const*)a;
  const char* y = *(char* const*)b;
  return (x > y) - (x < y);
}

__attribute__((constructor)) static void Start(void) {
  const char* target = getenv("PROFILE_TARGET");
  if (target == NULL || strcmp(program_invocation_short_name, target) != 0) {
    return;  // setarch and env load this library too; only the target samples
  }
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder outside the signal handler
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_handler = OnProf;
  action.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &action, NULL);
  struct itimerval timer = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &timer, NULL);
  armed = 1;
}

__attribute__((destructor)) static void Stop(void) {
  if (!armed) {
    return;
  }
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  // Frames 0 and 1 are this handler and the signal trampoline; frame 2 is
  // the interrupted instruction; later frames are return addresses, moved
  // back one byte into their call instruction.
  FILE* samples = fopen(getenv("PROFILE_OUT"), "a");
  void** seen = malloc(used * sizeof *seen);
  size_t count = 0;
  for (size_t i = 0; i < used; i += (size_t)words[i] + 1) {
    for (long f = 3; f <= (long)words[i]; ++f) {
      char* pc = (char*)words[i + f] - (f > 3);
      fprintf(samples, "%lx ", (unsigned long)pc);
      seen[count++] = pc;
    }
    fputc('\n', samples);
  }
  fclose(samples);
  qsort(seen, count, sizeof *seen, ByAddress);
  char path[4096];
  snprintf(path, sizeof path, "%s.where", getenv("PROFILE_OUT"));
  FILE* where = fopen(path, "a");
  for (size_t i = 0; i < count; ++i) {
    Dl_info info;
    if ((i == 0 || seen[i] != seen[i - 1]) && dladdr(seen[i], &info) != 0) {
      fprintf(where, "%lx %s 0x%lx\n", (unsigned long)seen[i],
              info.dli_fname[0] != '\0' ? info.dli_fname : "/proc/self/exe",
              (unsigned long)((char*)seen[i] - (char*)info.dli_fbase));
    }
  }
  fclose(where);
}
EOF
gcc -O2 -shared -fPIC -o "${WORK}/sampler.so" "${WORK}/sampler.c" -ldl

for ((run = 1; run <= RUNS; ++run)); do
  PROFILE_TARGET=perfbench PROFILE_OUT="${WORK}/samples" LD_PRELOAD="${WORK}/sampler.so" \
    setarch "$(uname -m)" -R "${TARGET}/perfbench" --workload "${WORKLOAD}" --seed "${SEED}" \
    >/dev/null
done

# Symbolize every distinct address, one addr2line call per object.
sort -u "${WORK}/samples.where" >"${WORK}/where"
for object in $(cut -d' ' -f2 "${WORK}/where" | sort -u); do
  [[ "${object}" == /proc/self/exe ]] && binary="${TARGET}/perfbench" || binary="${object}"
  awk -v o="${object}" '$2 == o' "${WORK}/where" >"${WORK}/one"
  cut -d' ' -f3 "${WORK}/one" | addr2line -f -C -e "${binary}" | awk 'NR % 2 == 1' |
    paste -d' ' <(cut -d' ' -f1 "${WORK}/one") - >>"${WORK}/names"
done

awk -v top=25 -v runs="${RUNS}" '
  FILENAME == ARGV[1] { name[$1] = substr($0, length($1) + 2); next }
  NF > 0 {
    ++total
    self[name[$1]]++
    split("", once)
    for (i = 1; i <= NF; ++i) once[name[$i]] = 1
    for (f in once) inclusive[f]++
  }
  END {
    printf "%d samples from %d run(s)\n  incl    self  (by inclusive)\n", total, runs
    for (f in inclusive) printf "%6.1f%% %6.1f%%  %s\n", 100 * inclusive[f] / total,
                                100 * self[f] / total, f | "sort -rn | head -n " top
    close("sort -rn | head -n " top)
    print "  incl    self  (by self)"
    for (f in self) printf "%6.1f%% %6.1f%%  %s\n", 100 * inclusive[f] / total,
                           100 * self[f] / total, f | "sort -k2 -rn | head -n " top
  }' "${WORK}/names" "${WORK}/samples"
