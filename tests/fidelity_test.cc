// Hybrid-fidelity equivalence suite (DESIGN.md §5.5).
//
// A flow-mode run must be *behaviourally* indistinguishable from a per-packet
// run of the same seed: identical admission outcomes, identical per-stream
// packet counts and terminal state, and lateness/gap quantiles that agree
// within the coarse timer's rounding plus the per-packet CPU tail the
// analytic model deliberately omits. The suite also exercises every demotion
// trigger — VCR ops, disk faults, MSU crash/failover — proving streams drop
// back to the bit-exact per-packet model around interesting moments.
//
// ctest registers seeded variants of this binary under the `fidelity` label
// (see tests/CMakeLists.txt); CALLIOPE_CHAOS_SEED sweeps the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/obs/report_diff.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

uint64_t SweepSeed(uint64_t fallback) {
  const char* env = std::getenv("CALLIOPE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

int64_t CounterOrZero(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

struct WorkloadResult {
  WorkloadResult() = default;

  ClusterReport report;
  int64_t flow_chunks = 0;
  int64_t flow_packets = 0;
  int64_t flow_promotions = 0;
  int64_t flow_demotions = 0;
  int64_t admissions_accepted = 0;
  int64_t admissions_rejected = 0;
  int64_t admissions_queued = 0;
  bool all_terminated = false;
};

InstallationConfig FidelityConfigFor(uint64_t seed, int msu_count, Fidelity mode) {
  InstallationConfig config;
  config.seed = seed;
  config.msu_count = msu_count;
  config.msu.fidelity.default_mode = mode;
  // Short quiet window so most of a 10 s movie plays in flow mode.
  config.msu.fidelity.quiet_window = SimTime::Millis(500);
  return config;
}

// Scripted hook run mid-play (VCR ops, faults, crashes). Receives the cluster,
// the client and the group ids in play order.
using MidScript = std::function<void(TestCluster&, CalliopeClient&, std::vector<GroupId>&)>;

// One deterministic steady-state workload: `streams` plays spread over
// `msu_count` MSUs (one movie per MSU), run to natural termination.
WorkloadResult RunWorkload(uint64_t seed, Fidelity mode, int msu_count, int streams,
                           const MidScript& mid = MidScript()) {
  WorkloadResult out;
  TestCluster cluster(FidelityConfigFor(seed, msu_count, mode));
  Simulator& sim = cluster.sim();
  EXPECT_TRUE(cluster.Boot().ok());
  for (int m = 0; m < msu_count; ++m) {
    EXPECT_TRUE(cluster.installation()
                    .LoadMpegMovie("m" + std::to_string(m), SimTime::Seconds(10),
                                   static_cast<size_t>(m), /*with_fast_scan=*/false)
                    .ok());
  }
  auto added = cluster.AddConnectedClient("c");
  EXPECT_TRUE(added.ok()) << added.status().ToString();
  if (!added.ok()) {
    return out;
  }
  CalliopeClient* client = *added;

  std::vector<GroupId> groups;
  for (int i = 0; i < streams; ++i) {
    auto play = PlayOn(sim, *client, "m" + std::to_string(i % msu_count),
                       "tv" + std::to_string(i));
    EXPECT_TRUE(play.ok()) << play.status().ToString();
    if (play.ok()) {
      groups.push_back(play->group);
    }
  }
  sim.RunFor(SimTime::Seconds(2));
  if (mid) {
    mid(cluster, *client, groups);
  }

  const bool terminated = RunUntil(
      sim,
      [&] {
        for (GroupId group : groups) {
          if (!client->GroupTerminated(group)) {
            return false;
          }
        }
        return true;
      },
      SimTime::Seconds(40));
  out.all_terminated = terminated && cluster.WaitForIdle(SimTime::Seconds(10));
  // Let the last in-flight datagrams (and any settled flow chunk) land.
  sim.RunFor(SimTime::Seconds(1));

  out.report = cluster.installation().BuildClusterReport();
  const MetricsSnapshot& snap = out.report.metrics;
  out.flow_chunks = CounterOrZero(snap, "sim.flow.chunks");
  out.flow_packets = CounterOrZero(snap, "sim.flow.packets");
  out.flow_promotions = CounterOrZero(snap, "sim.flow.promotions");
  out.flow_demotions = CounterOrZero(snap, "sim.flow.demotions");
  out.admissions_accepted = CounterOrZero(snap, "coord.admissions.accepted");
  out.admissions_rejected = CounterOrZero(snap, "coord.admissions.rejected");
  out.admissions_queued = CounterOrZero(snap, "coord.admissions.queued");
  return out;
}

// Tolerances for packet-vs-flow report comparison. Packet counts are held
// (nearly) exact; lateness quantiles may differ by the per-packet CPU tail
// (~hundreds of µs under load) the analytic model omits; arrival gaps may
// shift by one chunk transit time at flow-chunk boundaries.
ReportDiffOptions EquivalenceTolerances() {
  ReportDiffOptions options;
  options.packets = ReportDiffOptions::Tolerance(2, 0.001);
  // packets_late sits on the 1 ms histogram edge: the per-packet CPU tail
  // (absent from the analytic model) pushes borderline tick-rounding samples
  // across it, ~10% of a stream's packets in the worst observed case.
  options.late_packets = ReportDiffOptions::Tolerance(16, 0.15);
  options.lateness_us = ReportDiffOptions::Tolerance(3000, 0.25);
  // max lateness absorbs wire queueing collisions: a per-packet-mode record
  // (e.g. just after a demotion) can land behind a few other streams'
  // aggregated flow chunks, adding chunk-transfer times its twin never sees.
  options.max_lateness_us = ReportDiffOptions::Tolerance(12000, 0.25);
  options.gap_us = ReportDiffOptions::Tolerance(50000, 0.5);
  // Mechanism metrics (timer wakeups, NIC frames, disk ops, sim.flow.*)
  // legitimately differ across fidelity modes; streams/ports carry the
  // behavioural contract.
  options.compare_metrics = false;
  return options;
}

// Every check ExpectEquivalent makes but the report diff, which it returns.
ReportDiff ExpectSameOutcomes(const WorkloadResult& packet, const WorkloadResult& flow,
                              const std::string& label) {
  EXPECT_TRUE(packet.all_terminated) << label;
  EXPECT_TRUE(flow.all_terminated) << label;
  // Admission outcomes are exact — the admission path never runs in flow mode.
  EXPECT_EQ(packet.admissions_accepted, flow.admissions_accepted) << label;
  EXPECT_EQ(packet.admissions_rejected, flow.admissions_rejected) << label;
  EXPECT_EQ(packet.admissions_queued, flow.admissions_queued) << label;
  // The baseline run must be pure per-packet; the flow run must actually
  // have exercised the fast path.
  EXPECT_EQ(packet.flow_chunks, 0) << label;
  EXPECT_GT(flow.flow_chunks, 0) << label;
  EXPECT_GT(flow.flow_promotions, 0) << label;
  return DiffClusterReports(packet.report, flow.report, EquivalenceTolerances());
}

void ExpectEquivalent(const WorkloadResult& packet, const WorkloadResult& flow,
                      const std::string& label) {
  const ReportDiff diff = ExpectSameOutcomes(packet, flow, label);
  EXPECT_TRUE(diff.empty()) << label << " report diff:\n" << diff.ToText();
}

// ---- steady-state equivalence ----------------------------------------------

TEST(FidelityEquivalenceTest, FlowMatchesPacketSingleMsu) {
  const uint64_t seed = SweepSeed(1996);
  const WorkloadResult packet = RunWorkload(seed, Fidelity::kPacket, 1, 4);
  const WorkloadResult flow = RunWorkload(seed, Fidelity::kFlow, 1, 4);
  ExpectEquivalent(packet, flow, "1 MSU / 4 streams");
  // Flow mode accounted every logical packet it replaced.
  EXPECT_GT(flow.flow_packets, 0);
}

TEST(FidelityEquivalenceTest, FlowMatchesPacketTwoMsus) {
  const uint64_t seed = SweepSeed(1996);
  const WorkloadResult packet = RunWorkload(seed, Fidelity::kPacket, 2, 8);
  const WorkloadResult flow = RunWorkload(seed, Fidelity::kFlow, 2, 8);
  ExpectEquivalent(packet, flow, "2 MSUs / 8 streams");
}

// Admission churn: streams arrive one by one on a disk whose streams already
// run in flow mode, each after the last arrival's quiet window has passed.
// Every admission demotes the disk's flow streams to per-packet for a quiet
// window (Msu::HandleStartGroup). This pins a known divergence: streams'
// max lateness comes out at 35-52 ms in flow against 11-15 ms per-packet,
// and on some seeds their p99 at about twice the per-packet figure, beyond
// the tolerances, while every other field matches. Without the demotion the
// run stays inside every tolerance (ROADMAP item 3); once it is gone this
// case becomes a plain ExpectEquivalent named FlowMatchesPacketUnderAdmissionChurn.
TEST(FidelityEquivalenceTest, FlowDivergesFromPacketUnderAdmissionChurn) {
  const uint64_t seed = SweepSeed(7);
  const MidScript arrivals = [](TestCluster& cluster, CalliopeClient& client,
                                std::vector<GroupId>& groups) {
    for (int i = 0; i < 4; ++i) {
      auto play = PlayOn(cluster.sim(), client, "m0", "late" + std::to_string(i));
      ASSERT_TRUE(play.ok()) << play.status().ToString();
      EXPECT_FALSE(play->queued);
      groups.push_back(play->group);
      cluster.sim().RunFor(SimTime::Millis(750));
    }
  };
  const WorkloadResult packet = RunWorkload(seed, Fidelity::kPacket, 1, 3, arrivals);
  const WorkloadResult flow = RunWorkload(seed, Fidelity::kFlow, 1, 3, arrivals);
  const ReportDiff diff = ExpectSameOutcomes(packet, flow, "1 MSU / 3 streams + 4 arrivals");
  EXPECT_FALSE(diff.empty()) << "flow now matches packet: make this an ExpectEquivalent case";
  for (const ReportDiff::Entry& entry : diff.entries) {
    EXPECT_TRUE(entry.field.ends_with(".max_lateness_us") ||
                entry.field.ends_with(".p99_lateness_us"))
        << diff.ToText();
  }
  // Each arrival found the disk's earlier streams back in flow mode.
  EXPECT_GE(flow.flow_demotions, 3 + 4 + 5 + 6);
}

// ---- demotion triggers ------------------------------------------------------

TEST(FidelityDemotionTest, VcrPauseDemotesAndRunMatchesPacket) {
  const uint64_t seed = SweepSeed(42);
  const MidScript pause_resume = [](TestCluster& cluster, CalliopeClient& client,
                                    std::vector<GroupId>& groups) {
    ASSERT_FALSE(groups.empty());
    EXPECT_TRUE(VcrOp(cluster.sim(), client, groups[0], VcrCommand::Op::kPause).ok());
    cluster.sim().RunFor(SimTime::Seconds(2));
    EXPECT_TRUE(VcrOp(cluster.sim(), client, groups[0], VcrCommand::Op::kPlay).ok());
  };
  const WorkloadResult packet = RunWorkload(seed, Fidelity::kPacket, 1, 3, pause_resume);
  const WorkloadResult flow = RunWorkload(seed, Fidelity::kFlow, 1, 3, pause_resume);
  // The pause landed while the stream was in flow mode (2 s in, quiet window
  // 500 ms) and demoted it; the stream promoted again after the resume.
  EXPECT_GT(flow.flow_demotions, 0);
  EXPECT_GT(flow.flow_promotions, flow.flow_demotions);
  ExpectEquivalent(packet, flow, "pause/resume");
}

TEST(FidelityDemotionTest, DiskFaultWindowDemotes) {
  const uint64_t seed = SweepSeed(7);
  const MidScript slow_disk = [](TestCluster& cluster, CalliopeClient& client,
                                 std::vector<GroupId>& groups) {
    (void)client;
    (void)groups;
    // A latency window on every msu0 disk, starting now: the first faulted
    // access notifies the fault observer, which demotes the disk's streams.
    FaultPlan plan;
    FaultEvent slow;
    slow.what = FaultClass::kDiskSlow;
    slow.at = cluster.sim().Now();
    slow.duration = SimTime::Seconds(3);
    slow.node = "msu0";
    slow.disk = -1;
    slow.delay = SimTime::Millis(20);
    plan.events.push_back(slow);
    EXPECT_TRUE(cluster.installation().ApplyFaultPlan(plan).ok());
  };
  const WorkloadResult flow = RunWorkload(seed, Fidelity::kFlow, 1, 4, slow_disk);
  EXPECT_TRUE(flow.all_terminated);
  EXPECT_GT(flow.flow_chunks, 0);
  EXPECT_GT(flow.flow_demotions, 0);

  // Terminal state matches a per-packet run of the same faulted script.
  const WorkloadResult packet = RunWorkload(seed, Fidelity::kPacket, 1, 4, slow_disk);
  EXPECT_TRUE(packet.all_terminated);
  EXPECT_EQ(packet.admissions_accepted, flow.admissions_accepted);
  EXPECT_EQ(packet.admissions_rejected, flow.admissions_rejected);
  EXPECT_EQ(packet.flow_chunks, 0);
}

TEST(FidelityDemotionTest, MsuCrashFailoverDemotesAndRecovers) {
  const uint64_t seed = SweepSeed(11);
  // Two MSUs, every movie replicated on the other, so a crash mid-play fails
  // every stream over to the survivor.
  auto run = [&](Fidelity mode) {
    WorkloadResult out;
    TestCluster cluster(FidelityConfigFor(seed, 2, mode));
    Simulator& sim = cluster.sim();
    EXPECT_TRUE(cluster.Boot().ok());
    const int movies = 4;
    for (int i = 0; i < movies; ++i) {
      const std::string name = "m" + std::to_string(i);
      EXPECT_TRUE(
          cluster.installation().LoadMpegMovie(name, SimTime::Seconds(12), 0, false).ok());
      EXPECT_TRUE(cluster.installation().ReplicateContent(name, 1).ok());
    }
    auto added = cluster.AddConnectedClient("c");
    EXPECT_TRUE(added.ok());
    CalliopeClient* client = *added;
    std::vector<GroupId> groups;
    for (int i = 0; i < movies; ++i) {
      auto play = PlayOn(sim, *client, "m" + std::to_string(i), "tv" + std::to_string(i));
      EXPECT_TRUE(play.ok());
      if (play.ok()) {
        groups.push_back(play->group);
      }
    }
    // Let streams settle into flow mode, then kill the MSU serving some of
    // them: StopInternal settles + demotes in-flight flow streams, and the
    // failed-over replacements restart in packet mode on the survivor.
    sim.RunFor(SimTime::Seconds(5));
    cluster.msu(0).Crash();
    EXPECT_TRUE(RunUntil(
        sim, [&] { return cluster.msu(1).active_stream_count() == movies; },
        SimTime::Seconds(10)));
    out.all_terminated = RunUntil(
        sim,
        [&] {
          for (GroupId group : groups) {
            if (!client->GroupTerminated(group)) {
              return false;
            }
          }
          return true;
        },
        SimTime::Seconds(40));
    EXPECT_EQ(cluster.coordinator().active_stream_count(), 0u);
    EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
    sim.RunFor(SimTime::Seconds(1));
    out.report = cluster.installation().BuildClusterReport();
    const MetricsSnapshot& snap = out.report.metrics;
    out.flow_chunks = CounterOrZero(snap, "sim.flow.chunks");
    out.flow_demotions = CounterOrZero(snap, "sim.flow.demotions");
    out.flow_promotions = CounterOrZero(snap, "sim.flow.promotions");
    out.admissions_accepted = CounterOrZero(snap, "coord.admissions.accepted");
    out.admissions_rejected = CounterOrZero(snap, "coord.admissions.rejected");
    return out;
  };

  const WorkloadResult flow = run(Fidelity::kFlow);
  EXPECT_TRUE(flow.all_terminated);
  EXPECT_GT(flow.flow_chunks, 0);
  // The crash cut streams that were running in flow mode: each settled its
  // due records and demoted on StopInternal.
  EXPECT_GT(flow.flow_demotions, 0);

  const WorkloadResult packet = run(Fidelity::kPacket);
  EXPECT_TRUE(packet.all_terminated);
  EXPECT_EQ(packet.flow_chunks, 0);
  // Same admission outcomes (initial placements and failover re-placements).
  EXPECT_EQ(packet.admissions_accepted, flow.admissions_accepted);
  EXPECT_EQ(packet.admissions_rejected, flow.admissions_rejected);
}

// ---- flow chunk cap (FlowChunkCap) ------------------------------------------
// While a packet-fidelity stream plays on the same MSU, a flow stream's
// aggregated chunks carry at most 8 records, so the neighbour's packets never
// queue behind a page-sized frame. Once the neighbour is gone the cap lifts
// and chunks carry whole pages again, however the neighbour left.

enum class NeighbourExit { kPauseThenStop, kQuit, kMsuCrashAndRestart };

struct ChunkSpan {
  int64_t chunks = 0;
  int64_t largest = 0;
  int64_t smallest = 0;
};

// Records the flow chunk sizes (in records) the link hook sees leave msu0 for
// one client UDP port.
class ChunkLog {
 public:
  void See(SimTime at, int port, int64_t records) { chunks_.push_back({at, port, records}); }

  ChunkSpan Between(int port, SimTime from, SimTime to) const {
    ChunkSpan span;
    for (const Chunk& chunk : chunks_) {
      if (chunk.port != port || chunk.at < from || chunk.at >= to) {
        continue;
      }
      span.smallest = span.chunks == 0 ? chunk.records : std::min(span.smallest, chunk.records);
      span.largest = std::max(span.largest, chunk.records);
      ++span.chunks;
    }
    return span;
  }

 private:
  struct Chunk {
    SimTime at;
    int port = 0;
    int64_t records = 0;
  };
  std::vector<Chunk> chunks_;
};

void RunChunkCapScenario(NeighbourExit exit) {
  InstallationConfig config = FidelityConfigFor(SweepSeed(5), 1, Fidelity::kFlow);
  ChunkLog log;  // outlives the cluster, whose hook writes into it
  TestCluster cluster(config);
  Simulator& sim = cluster.sim();
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(40), 0, false).ok());
  ASSERT_TRUE(cluster.installation()
                  .LoadPackets("vbr0", "rtp-video",
                               GenerateVbr(Graph2File(0), SimTime::Seconds(40)), 0)
                  .ok());
  cluster.network().set_fault_hook([&log, &sim](const Datagram& datagram) {
    if (datagram.proto == Datagram::Proto::kUdp && datagram.src_node == "msu0") {
      const auto& media = *std::static_pointer_cast<const MediaDatagramPayload>(datagram.payload);
      if (media.flow_count > 0) {
        log.See(sim.Now(), datagram.dst_port, media.flow_count);
      }
    }
    return LinkFault();
  });
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto viewer = PlayOn(sim, **client, "m0", "tv");
  ASSERT_TRUE(viewer.ok());
  // The neighbour never leaves the per-packet model: an RTP playback, or for
  // the crash a recording, which failover does not resume (a playback
  // would come back on the restarted MSU and rightly cap the viewer again).
  auto neighbour = exit == NeighbourExit::kMsuCrashAndRestart
                       ? RecordOn(sim, **client, "clip", "rtp-video", "nb", SimTime::Seconds(20))
                       : PlayOn(sim, **client, "vbr0", "nb", "rtp-video");
  ASSERT_TRUE(neighbour.ok());
  const int tv_port = (*client)->FindPort("tv")->udp_port();

  const SimTime capped_from = sim.Now() + SimTime::Seconds(1);
  sim.RunFor(SimTime::Seconds(3));
  const ChunkSpan capped = log.Between(tv_port, capped_from, sim.Now());
  EXPECT_GT(capped.chunks, 10);
  EXPECT_LE(capped.largest, 8);

  switch (exit) {
    case NeighbourExit::kPauseThenStop: {
      ASSERT_TRUE(VcrOp(sim, **client, neighbour->group, VcrCommand::Op::kPause).ok());
      const SimTime paused_at = sim.Now();
      sim.RunFor(SimTime::Seconds(2));
      // Paused is not stopped: the neighbour may resume at any moment.
      const ChunkSpan paused = log.Between(tv_port, paused_at, sim.Now());
      EXPECT_GT(paused.chunks, 0);
      EXPECT_LE(paused.largest, 8);
      ASSERT_TRUE(QuitGroup(sim, **client, neighbour->group).ok());
      break;
    }
    case NeighbourExit::kQuit:
      ASSERT_TRUE(QuitGroup(sim, **client, neighbour->group).ok());
      break;
    case NeighbourExit::kMsuCrashAndRestart: {
      cluster.msu(0).Crash();
      sim.RunFor(SimTime::Seconds(1));
      CoResult<Status> restarted;
      Collect(cluster.msu(0).Restart("coordinator"), &restarted);
      ASSERT_TRUE(RunUntil(sim, [&] { return restarted.done(); }, SimTime::Seconds(10)));
      ASSERT_TRUE(restarted.value->ok());
      break;
    }
  }
  // Past the viewer's quiet window (it is re-promoted after any demotion).
  sim.RunFor(SimTime::Seconds(2));
  const SimTime free_from = sim.Now();
  sim.RunFor(SimTime::Seconds(5));
  const ChunkSpan free = log.Between(tv_port, free_from, sim.Now());
  EXPECT_GT(free.chunks, 0);
  EXPECT_GT(free.smallest, 8);
}

TEST(FidelityChunkCapTest, LiftsWhenPacketNeighbourPausesThenStops) {
  RunChunkCapScenario(NeighbourExit::kPauseThenStop);
}

TEST(FidelityChunkCapTest, LiftsWhenPacketNeighbourQuits) {
  RunChunkCapScenario(NeighbourExit::kQuit);
}

TEST(FidelityChunkCapTest, LiftsWhenMsuCrashCutsPacketNeighbour) {
  RunChunkCapScenario(NeighbourExit::kMsuCrashAndRestart);
}

// ---- stream sharing (DESIGN §5.6) -------------------------------------------
// A shared delivery group must honor the same flow-vs-packet equivalence
// contract as solo streams: the one disk stream promotes to flow mode and
// fans chunks out to every member, and a per-member report diff against a
// pure per-packet run stays inside the standard tolerances.

WorkloadResult RunSharedWorkload(uint64_t seed, Fidelity mode, const MidScript& mid) {
  WorkloadResult out;
  InstallationConfig config = FidelityConfigFor(seed, 1, mode);
  config.coordinator.sharing.enabled = true;
  TestCluster cluster(config);
  Simulator& sim = cluster.sim();
  EXPECT_TRUE(cluster.Boot().ok());
  EXPECT_TRUE(
      cluster.installation().LoadMpegMovie("hot", SimTime::Seconds(10), 0, false).ok());
  EXPECT_TRUE(
      cluster.installation().LoadMpegMovie("cold", SimTime::Seconds(10), 0, false).ok());
  auto added = cluster.AddConnectedClient("c");
  EXPECT_TRUE(added.ok()) << added.status().ToString();
  if (!added.ok()) {
    return out;
  }
  CalliopeClient* client = *added;

  // Three viewers coalesce onto one delivery stream for the hot title; one
  // solo viewer keeps the cold title in the mix.
  std::vector<GroupId> groups;
  for (int i = 0; i < 4; ++i) {
    auto play = PlayOn(sim, *client, i < 3 ? "hot" : "cold", "tv" + std::to_string(i));
    EXPECT_TRUE(play.ok()) << play.status().ToString();
    if (play.ok()) {
      groups.push_back(play->group);
    }
  }
  sim.RunFor(SimTime::Seconds(2));
  if (mid) {
    mid(cluster, *client, groups);
  }

  out.all_terminated = RunUntil(
                           sim,
                           [&] {
                             for (GroupId group : groups) {
                               if (!client->GroupTerminated(group)) {
                                 return false;
                               }
                             }
                             return true;
                           },
                           SimTime::Seconds(40)) &&
                       cluster.WaitForIdle(SimTime::Seconds(10));
  sim.RunFor(SimTime::Seconds(1));

  out.report = cluster.installation().BuildClusterReport();
  const MetricsSnapshot& snap = out.report.metrics;
  out.flow_chunks = CounterOrZero(snap, "sim.flow.chunks");
  out.flow_packets = CounterOrZero(snap, "sim.flow.packets");
  out.flow_promotions = CounterOrZero(snap, "sim.flow.promotions");
  out.flow_demotions = CounterOrZero(snap, "sim.flow.demotions");
  out.admissions_accepted = CounterOrZero(snap, "coord.admissions.accepted");
  out.admissions_rejected = CounterOrZero(snap, "coord.admissions.rejected");
  out.admissions_queued = CounterOrZero(snap, "coord.admissions.queued");
  EXPECT_EQ(CounterOrZero(snap, "coord.groups.formed"), 2) << "hot + cold batches";
  return out;
}

TEST(FidelitySharingTest, SharedGroupFlowMatchesPacket) {
  const uint64_t seed = SweepSeed(1996);
  const WorkloadResult packet = RunSharedWorkload(seed, Fidelity::kPacket, MidScript());
  const WorkloadResult flow = RunSharedWorkload(seed, Fidelity::kFlow, MidScript());
  ExpectEquivalent(packet, flow, "shared group, 3 members + 1 solo");
  // The fan-out path itself ran analytically: more flow packets were
  // accounted than a page-by-page solo delivery could produce alone.
  EXPECT_GT(flow.flow_packets, 0);
}

TEST(FidelitySharingTest, VcrSplitDemotesSharedDeliveryAndRunMatchesPacket) {
  const uint64_t seed = SweepSeed(42);
  const MidScript split_one = [](TestCluster& cluster, CalliopeClient& client,
                                 std::vector<GroupId>& groups) {
    ASSERT_GE(groups.size(), 2u);
    // Member 1 pauses out of the shared group: the split settles the
    // delivery stream's in-flight page and demotes it (membership churn is
    // an interesting moment), then the member resumes solo.
    EXPECT_TRUE(VcrOp(cluster.sim(), client, groups[1], VcrCommand::Op::kPause).ok());
    cluster.sim().RunFor(SimTime::Seconds(2));
    EXPECT_TRUE(VcrOp(cluster.sim(), client, groups[1], VcrCommand::Op::kPlay).ok());
  };
  const WorkloadResult packet = RunSharedWorkload(seed, Fidelity::kPacket, split_one);
  const WorkloadResult flow = RunSharedWorkload(seed, Fidelity::kFlow, split_one);
  // The split demoted the flow-mode delivery stream; it re-promoted after the
  // membership settled.
  EXPECT_GT(flow.flow_demotions, 0);
  EXPECT_GT(flow.flow_promotions, flow.flow_demotions);
  ExpectEquivalent(packet, flow, "shared group with VCR split");
}

// ---- event economy ------------------------------------------------------------
// Flow fidelity exists to make a stream-second cheap to simulate. Event
// counts repeat exactly for a seed, so the saving is asserted as a ratio of
// counts, not of host time.

// Simulator events per stream-second of steady-state delivery at the Graph-1
// working point scaled to `msu_count` MSUs: 22 MPEG-1 streams per MSU, 11 per
// disk, 16 viewers per client host.
double EventsPerStreamSecond(uint64_t seed, Fidelity mode, int msu_count) {
  constexpr int kPerMsu = 22;
  constexpr int kDisks = 2;
  constexpr int kPerClient = 16;
  const SimTime window = SimTime::Seconds(2);
  InstallationConfig config = FidelityConfigFor(seed, msu_count, mode);
  config.msu_machine.disks_per_hba = {kDisks};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(2.2);
  TestCluster cluster(config);
  Simulator& sim = cluster.sim();
  EXPECT_TRUE(cluster.Boot().ok());
  for (int m = 0; m < msu_count; ++m) {
    for (int d = 0; d < kDisks; ++d) {
      EXPECT_TRUE(cluster.installation()
                      .LoadMpegMovie("m" + std::to_string(m) + "_" + std::to_string(d),
                                     SimTime::Seconds(12), static_cast<size_t>(m), false, d)
                      .ok());
    }
  }
  const int total = msu_count * kPerMsu;
  std::vector<CalliopeClient*> clients;
  for (int c = 0; c * kPerClient < total; ++c) {
    auto added = cluster.AddConnectedClient("c" + std::to_string(c));
    EXPECT_TRUE(added.ok()) << added.status().ToString();
    if (!added.ok()) {
      return 0;
    }
    clients.push_back(*added);
  }
  // Every viewer asks at once; the Coordinator admits them within a second.
  int started = 0;
  for (int i = 0; i < total; ++i) {
    const std::string content = "m" + std::to_string(i % msu_count) + "_" +
                                std::to_string((i / msu_count) % kDisks);
    [](CalliopeClient* client, std::string title, std::string port, int* started_count) -> Task {
      auto registered = co_await client->RegisterPort(port, "mpeg1");
      if (!registered.ok()) {
        co_return;
      }
      auto play = co_await client->Play(title, port);
      *started_count += play.ok() ? 1 : 0;
    }(clients[static_cast<size_t>(i / kPerClient)], content, "tv" + std::to_string(i),
      &started);
  }
  EXPECT_TRUE(RunUntil(sim, [&] { return started == total; }, SimTime::Seconds(10)));
  // Past the last admission's quiet window: flow streams have promoted.
  sim.RunFor(SimTime::Seconds(1));
  int active = 0;
  for (int m = 0; m < msu_count; ++m) {
    active += cluster.msu(static_cast<size_t>(m)).active_stream_count();
  }
  EXPECT_EQ(active, total);
  const int64_t before = sim.events_fired();
  sim.RunFor(window);
  return static_cast<double>(sim.events_fired() - before) / (active * window.seconds());
}

TEST(FidelityEconomyTest, FlowNeedsTenTimesFewerEventsPerStreamSecond) {
  const uint64_t seed = SweepSeed(1996);
  const double packet = EventsPerStreamSecond(seed, Fidelity::kPacket, 8);
  const double flow = EventsPerStreamSecond(seed, Fidelity::kFlow, 8);
  ASSERT_GT(flow, 0);
  EXPECT_GE(packet / flow, 10.0) << "packet " << packet << " vs flow " << flow
                                 << " events per stream-second";
}

// ---- purity: default config never leaves the per-packet model ---------------

TEST(FidelityPurityTest, DefaultConfigStaysPerPacket) {
  const uint64_t seed = SweepSeed(1996);
  InstallationConfig config;
  config.seed = seed;
  // Default MsuParams: fidelity.default_mode == kPacket.
  ASSERT_EQ(config.msu.fidelity.default_mode, Fidelity::kPacket);
  const WorkloadResult packet = RunWorkload(seed, Fidelity::kPacket, 1, 4);
  EXPECT_EQ(packet.flow_chunks, 0);
  EXPECT_EQ(packet.flow_packets, 0);
  EXPECT_EQ(packet.flow_promotions, 0);
}

}  // namespace
}  // namespace calliope
