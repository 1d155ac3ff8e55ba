// The paper's headline claim (abstract): "Calliope can be scaled from a
// single PC producing about 22 MPEG-1 streams to hundreds of PCs producing
// thousands of streams ... The Coordinator and internal network are the only
// shared resources in the system, so their capacity will eventually limit
// system size."
//
// This bench grows the installation from 1 to 8 MSUs, loads each to the
// Graph-1 working point (22 well-delivered 1.5 Mbit/s streams), and shows
// aggregate capacity scaling linearly while delivery quality holds and the
// Coordinator's load stays negligible.
//
// It then demonstrates replica-aware failover (§2.3.3 replication + §2.2
// failure detection): two MSUs with fully replicated content, one crashes
// mid-play, and the Coordinator re-places the interrupted streams on the
// survivor near their last reported media offsets. Run with
// --policy=<least-loaded|first-fit|power-of-two|replica-aware|all> to sweep
// placement policies (default: all), --failover-only to skip the scale-out
// table, or --report to print each failover run's ClusterReport.
//
// Exits 1 if a scale row admits fewer than 22 streams per MSU, or if any
// policy resumes less than all of the crashed MSU's streams or leaves the
// admission ledger unbalanced.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/table.h"

namespace calliope {
namespace {

struct ScaleResult {
  int msus = 0;
  int streams = 0;
  double delivered_mbps = 0;
  double pct_within_50ms = 0;
  double coordinator_cpu = 0;
};

ScaleResult RunScale(int msu_count, SimTime duration) {
  InstallationConfig config;
  config.msu_count = msu_count;
  config.msu_machine.disks_per_hba = {2};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(2.2);  // 11/disk: a safe margin
  Installation calliope(config);
  if (!calliope.Boot().ok()) {
    return ScaleResult{};
  }
  const int per_msu = 22;
  for (int m = 0; m < msu_count; ++m) {
    for (int i = 0; i < per_msu; ++i) {
      (void)calliope.LoadMpegMovie("m" + std::to_string(m) + "_" + std::to_string(i),
                                   duration + SimTime::Seconds(60), static_cast<size_t>(m),
                                   false, i % 2);
    }
  }
  CalliopeClient& client = calliope.AddClient("viewers");
  bool connected = false;
  [](CalliopeClient* c, bool* flag) -> Task {
    *flag = (co_await c->Connect("bob", "bob-key")).ok();
  }(&client, &connected);
  RunSimUntil(calliope.sim(), [&] { return connected; }, SimTime::Seconds(5));

  calliope.coordinator_node().machine().cpu().ResetStats();
  std::vector<std::unique_ptr<PlaybackHandle>> handles;
  for (int m = 0; m < msu_count; ++m) {
    for (int i = 0; i < per_msu; ++i) {
      handles.push_back(std::make_unique<PlaybackHandle>());
      StartPlayback(client, "m" + std::to_string(m) + "_" + std::to_string(i),
                    "tv" + std::to_string(m) + "_" + std::to_string(i), "mpeg1",
                    handles.back().get());
    }
  }
  RunSimUntil(calliope.sim(), [&] { return handles.back()->done; }, SimTime::Seconds(60));
  calliope.sim().RunFor(duration);

  ScaleResult result;
  result.msus = msu_count;
  LatenessHistogram total;
  for (int m = 0; m < msu_count; ++m) {
    total.Merge(calliope.msu(static_cast<size_t>(m)).AggregateLateness());
    result.streams += calliope.msu(static_cast<size_t>(m)).active_stream_count();
  }
  result.delivered_mbps =
      static_cast<double>(total.total_count()) * 4096.0 / 1e6 / duration.seconds();
  result.pct_within_50ms = 100.0 * total.FractionWithin(SimTime::Millis(50));
  result.coordinator_cpu = calliope.coordinator_node().machine().cpu().Utilization();
  return result;
}

struct FailoverResult {
  std::string policy;
  int started = 0;
  int lost = 0;       // active on the crashed MSU at crash time
  int resumed = 0;    // re-placed on the survivor after the crash
  double pct_resumed = 0;
  bool ledger_balanced = false;
};

// Two MSUs, every movie replicated on both; crash msu0 mid-play and measure
// how many of its streams the Coordinator resumes on msu1.
FailoverResult RunFailover(const std::string& policy, SimTime play_before, SimTime settle,
                           bool print_report) {
  FailoverResult result;
  result.policy = policy;

  InstallationConfig config;
  config.msu_count = 2;
  config.msu_machine.disks_per_hba = {2};
  config.coordinator.placement_policy = policy;
  Installation calliope(config);
  if (!calliope.Boot().ok()) {
    return result;
  }
  // Unknown names fall back to least-loaded; report what actually ran.
  result.policy = calliope.coordinator().placement_policy_name();
  const int movies = 16;
  const SimTime content_length = play_before + settle + SimTime::Seconds(60);
  for (int i = 0; i < movies; ++i) {
    const std::string name = "f" + std::to_string(i);
    (void)calliope.LoadMpegMovie(name, content_length, 0, false, i % 2);
    (void)calliope.ReplicateContent(name, 1, i % 2);
  }

  CalliopeClient& client = calliope.AddClient("viewers");
  bool connected = false;
  [](CalliopeClient* c, bool* flag) -> Task {
    *flag = (co_await c->Connect("bob", "bob-key")).ok();
  }(&client, &connected);
  RunSimUntil(calliope.sim(), [&] { return connected; }, SimTime::Seconds(5));

  std::vector<std::unique_ptr<PlaybackHandle>> handles;
  for (int i = 0; i < movies; ++i) {
    handles.push_back(std::make_unique<PlaybackHandle>());
    StartPlayback(client, "f" + std::to_string(i), "ftv" + std::to_string(i), "mpeg1",
                  handles.back().get());
  }
  RunSimUntil(calliope.sim(),
              [&] {
                for (const auto& handle : handles) {
                  if (!handle->done) {
                    return false;
                  }
                }
                return true;
              },
              SimTime::Seconds(30));
  for (const auto& handle : handles) {
    if (!handle->failed) {
      ++result.started;
    }
  }

  calliope.sim().RunFor(play_before);
  result.lost = calliope.msu(0).active_stream_count();
  const int survivor_before = calliope.msu(1).active_stream_count();

  calliope.msu(0).Crash();
  RunSimUntil(calliope.sim(),
              [&] {
                return calliope.msu(1).active_stream_count() >= survivor_before + result.lost;
              },
              settle);
  result.resumed = calliope.msu(1).active_stream_count() - survivor_before;
  result.pct_resumed =
      result.lost > 0 ? 100.0 * result.resumed / result.lost : 100.0;

  // Quit everything and check the ledger drains to zero (admission accounting
  // balanced across the crash).
  for (const auto& handle : handles) {
    if (!handle->failed && !client.GroupTerminated(handle->group)) {
      [](CalliopeClient* c, GroupId group) -> Task {
        co_await c->Quit(group);
      }(&client, handle->group);
    }
  }
  RunSimUntil(calliope.sim(),
              [&] { return calliope.coordinator().active_stream_count() == 0; },
              SimTime::Seconds(10));
  result.ledger_balanced = calliope.coordinator().ledger().TotalReserved() == DataRate() &&
                           calliope.coordinator().ledger().outstanding_holds() == 0;
  if (print_report) {
    std::printf("\nClusterReport after failover (policy %s):\n%s\n", result.policy.c_str(),
                calliope.BuildClusterReport().ToText().c_str());
  }
  return result;
}

}  // namespace
}  // namespace calliope

int main(int argc, char** argv) {
  using namespace calliope;
  std::string policy_flag = "all";
  bool failover_only = false;
  bool print_report = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      policy_flag = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--failover-only") == 0) {
      failover_only = true;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      print_report = true;
    } else {
      std::fprintf(stderr, "usage: %s [--policy=<name|all>] [--failover-only] [--report]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<std::string> policies;
  if (policy_flag == "all") {
    policies = PlacementPolicyRegistry::WithBuiltins().names();
  } else {
    policies.push_back(policy_flag);
  }
  bool accepted = true;

  if (!failover_only) {
    PrintHeader("Scale-out: aggregate capacity vs number of MSUs",
                "USENIX '96 Calliope paper, abstract + section 3.3");

    const SimTime duration = FastBenchMode() ? SimTime::Seconds(20) : SimTime::Seconds(60);
    AsciiTable table({"MSUs", "streams", "delivered MB/s", "% <= 50ms late", "coordinator CPU"});
    for (int msus : {1, 2, 4, 8}) {
      const ScaleResult result = RunScale(msus, duration);
      char mb[32], pct[32], cpu[32];
      std::snprintf(mb, sizeof(mb), "%.2f", result.delivered_mbps);
      std::snprintf(pct, sizeof(pct), "%.1f", result.pct_within_50ms);
      std::snprintf(cpu, sizeof(cpu), "%.2f%%", result.coordinator_cpu * 100.0);
      table.AddRow({std::to_string(result.msus), std::to_string(result.streams), mb, pct, cpu});
      // Every MSU must carry the full Graph-1 working load.
      if (result.streams < 22 * msus) {
        std::fprintf(stderr, "scaleout: %d MSUs admitted %d streams, fewer than 22 per MSU\n",
                     msus, result.streams);
        accepted = false;
      }
    }
    std::printf("%s\n", table.Render().c_str());
    std::printf("Each MSU carries the Graph-1 working load (22 x 1.5 Mbit/s); capacity\n");
    std::printf("scales with the box count while the Coordinator idles — extrapolating,\n");
    std::printf("\"150 MSUs at 20 streams each\" (3000 streams) needs ~50 requests/second\n");
    std::printf("of Coordinator work, per the scalability bench.\n\n");
  }

  PrintHeader("Replica-aware failover: crash one of two mirrored MSUs mid-play",
              "USENIX '96 Calliope paper, sections 2.2 + 2.3.3");
  const SimTime play_before = FastBenchMode() ? SimTime::Seconds(6) : SimTime::Seconds(10);
  AsciiTable failover({"policy", "streams", "on crashed MSU", "resumed", "% resumed",
                       "ledger balanced"});
  for (const std::string& policy : policies) {
    const FailoverResult result = RunFailover(policy, play_before, SimTime::Seconds(8),
                                              print_report);
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.0f%%", result.pct_resumed);
    failover.AddRow({result.policy, std::to_string(result.started),
                     std::to_string(result.lost), std::to_string(result.resumed), pct,
                     result.ledger_balanced ? "yes" : "NO"});
    if (result.resumed < result.lost || !result.ledger_balanced) {
      std::fprintf(stderr, "scaleout: policy %s resumed %d of %d streams, ledger %s\n",
                   result.policy.c_str(), result.resumed, result.lost,
                   result.ledger_balanced ? "balanced" : "NOT balanced");
      accepted = false;
    }
  }
  std::printf("%s\n", failover.Render().c_str());
  std::printf("Every movie is mirrored on both MSUs; when one crashes, the Coordinator\n");
  std::printf("re-runs placement for its interrupted groups against the replicas and\n");
  std::printf("resumes each stream near its last reported media offset.\n");
  // Each Installation writes its own suffixed trace at destruction
  // (out.json, out.2.json, ...), so multi-scenario runs keep every trace.
  if (const char* trace_env = std::getenv("CALLIOPE_TRACE");
      trace_env != nullptr && *trace_env != '\0') {
    std::printf("\nChrome traces written to %s (one suffixed file per scenario) — open at "
                "https://ui.perfetto.dev\n",
                trace_env);
  }
  return accepted ? 0 : 1;
}
