// Shared helpers for the paper-reproduction benchmark binaries.
#ifndef CALLIOPE_BENCH_BENCH_UTIL_H_
#define CALLIOPE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "src/calliope/calliope.h"

namespace calliope {

// Set CALLIOPE_BENCH_FAST=1 to shrink measurement windows (CI smoke runs).
inline bool FastBenchMode() {
  const char* env = std::getenv("CALLIOPE_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

inline bool RunSimUntil(Simulator& sim, const std::function<bool()>& pred, SimTime timeout,
                        SimTime step = SimTime::Millis(20)) {
  const SimTime deadline = sim.Now() + timeout;
  while (!pred() && sim.Now() < deadline) {
    sim.RunFor(step);
  }
  return pred();
}

// Starts one client session playing `content` on a fresh mpeg1 display port.
// Returns through `out` (0 = failed).
struct PlaybackHandle {
  GroupId group = 0;
  bool failed = false;
  bool queued = false;  // Coordinator accepted but has no resources yet
  bool done = false;
  SimTime requested_at;  // when the play request was issued
};

inline Task StartPlayback(CalliopeClient& client, std::string content, std::string port_name,
                          std::string type_name, PlaybackHandle* out) {
  auto port = co_await client.RegisterPort(port_name, type_name);
  if (!port.ok()) {
    out->failed = true;
    out->done = true;
    co_return;
  }
  out->requested_at = client.sim().Now();
  auto play = co_await client.Play(std::move(content), std::move(port_name));
  if (!play.ok()) {
    out->failed = true;
    out->done = true;
    co_return;
  }
  out->group = play->group;
  out->queued = play->queued;
  out->done = true;
}

// When CALLIOPE_BENCH_CSV is set to a directory, figure benches also write
// their cumulative-distribution series as CSV for external plotting.
inline void MaybeWriteCdfCsv(const std::string& name, const LatenessHistogram& histogram) {
  const char* dir = std::getenv("CALLIOPE_BENCH_CSV");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "milliseconds_late,cumulative_percent\n");
  for (const auto& point : histogram.CdfSeries(400)) {
    if (point.lateness == SimTime::Max()) {
      continue;
    }
    std::fprintf(file, "%lld,%.4f\n", static_cast<long long>(point.lateness.millis()),
                 point.cumulative_percent);
  }
  std::fclose(file);
  std::printf("(wrote %s)\n", path.c_str());
}

inline void PrintHeader(const char* title, const char* paper_reference) {
  std::printf("==========================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paper_reference);
  std::printf("==========================================================================\n");
}

}  // namespace calliope

#endif  // CALLIOPE_BENCH_BENCH_UTIL_H_
