// Dynamic cross-MSU rebalancing tests (DESIGN §5.8): the pure planner, the
// flash-crowd convergence claim (a cold title suddenly dominating the mix
// converges to zero queued viewers once the background copy installs, while
// live lateness stays within SLO throughout the copy), copy preemption by
// live admissions, copy-source crash and primary-flip-mid-replication chaos,
// and the equal-seed byte-identical ClusterReport guarantee with the
// rebalancer enabled.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/obs/report_diff.h"
#include "src/rebalance/planner.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

// Jitters fault timing; ctest sweeps it through CALLIOPE_CHAOS_SEED exactly
// like the chaos/sharing harnesses.
uint64_t RebalanceSeed() {
  const char* env = std::getenv("CALLIOPE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1996;
}

int64_t CounterValue(TestCluster& cluster, const std::string& name) {
  return cluster.installation().metrics().Snapshot().counters.at(name);
}

// ---- planner unit tests -----------------------------------------------------

RebalanceSnapshot TwoMsuSnapshot() {
  RebalanceSnapshot snapshot;
  snapshot.disk_budget = DataRate::MegabytesPerSec(1.0);
  for (const char* name : {"msu0", "msu1"}) {
    MsuView msu;
    msu.node = name;
    msu.up = true;
    msu.free_space = Bytes::MiB(256);
    msu.disks.resize(2);
    snapshot.msus.push_back(std::move(msu));
  }
  return snapshot;
}

TitleView HotQueuedTitle() {
  TitleView title;
  title.name = "hot";
  title.popularity = 5.0;
  title.pending = 3;
  title.size = Bytes::MiB(8);
  ReplicaView replica;
  replica.msu = "msu0";
  replica.disk = 0;
  replica.file = "hot";
  replica.active_streams = 4;
  title.replicas.push_back(std::move(replica));
  return title;
}

TEST(RebalancePlannerTest, QueuePressureCopiesToLeastLoadedDisk) {
  RebalanceSnapshot snapshot = TwoMsuSnapshot();
  snapshot.msus[1].disks[0].load = DataRate::MegabitsPerSec(3);  // disk 1 is emptier
  snapshot.titles.push_back(HotQueuedTitle());

  const RebalancePlan plan = PlanRebalance(snapshot, RebalanceConfig(), 2);
  ASSERT_EQ(plan.copies.size(), 1u);
  EXPECT_EQ(plan.copies[0].content, "hot");
  EXPECT_EQ(plan.copies[0].source_msu, "msu0");
  EXPECT_EQ(plan.copies[0].source_file, "hot");
  EXPECT_EQ(plan.copies[0].target_msu, "msu1");
  EXPECT_EQ(plan.copies[0].target_disk, 1);
  EXPECT_EQ(plan.copies[0].space, Bytes::MiB(8));
  EXPECT_TRUE(plan.demotes.empty());
}

TEST(RebalancePlannerTest, NoCopyWithoutSlotsBudgetOrNeed) {
  RebalanceSnapshot snapshot = TwoMsuSnapshot();
  snapshot.titles.push_back(HotQueuedTitle());

  // No concurrency slots left this tick.
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 0).copies.empty());

  // An in-flight copy to the only other MSU already covers the demand.
  snapshot.titles[0].inflight_targets.push_back("msu1");
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).copies.empty());
  snapshot.titles[0].inflight_targets.clear();

  // Every target disk would break the live-admission budget.
  for (DiskView& disk : snapshot.msus[1].disks) {
    disk.load = snapshot.disk_budget;
  }
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).copies.empty());
  for (DiskView& disk : snapshot.msus[1].disks) {
    disk.load = DataRate();
  }

  // No space for the replica on the candidate target.
  snapshot.msus[1].free_space = Bytes::MiB(1);
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).copies.empty());
  snapshot.msus[1].free_space = Bytes::MiB(256);

  // A quiet title keeps its single copy.
  snapshot.titles[0].pending = 0;
  snapshot.titles[0].popularity = 0.5;
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).copies.empty());
}

TEST(RebalancePlannerTest, DemotesOnlyIdleDynamicSurplusReplicas) {
  RebalanceSnapshot snapshot = TwoMsuSnapshot();
  TitleView title;
  title.name = "cold";
  title.popularity = 0.1;
  title.size = Bytes::MiB(8);
  ReplicaView original;
  original.msu = "msu0";
  original.file = "cold";
  ReplicaView dynamic;
  dynamic.msu = "msu1";
  dynamic.file = "cold.r1";
  dynamic.dynamic = true;
  dynamic.active_streams = 1;
  title.replicas.push_back(original);
  title.replicas.push_back(dynamic);
  snapshot.titles.push_back(title);

  // A live stream pins the dynamic replica.
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).demotes.empty());

  // Idle: the dynamic copy goes, never the original.
  snapshot.titles[0].replicas[1].active_streams = 0;
  RebalancePlan plan = PlanRebalance(snapshot, RebalanceConfig(), 2);
  ASSERT_EQ(plan.demotes.size(), 1u);
  EXPECT_EQ(plan.demotes[0].msu, "msu1");
  EXPECT_EQ(plan.demotes[0].file, "cold.r1");

  // The last copy is never demoted even when cold, and a static replica is
  // not demotable at all.
  snapshot.titles[0].replicas[1].dynamic = false;
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).demotes.empty());
  snapshot.titles[0].replicas.pop_back();
  EXPECT_TRUE(PlanRebalance(snapshot, RebalanceConfig(), 2).demotes.empty());
}

// ---- system tests -----------------------------------------------------------

// 2 MSUs, one disk each, 1 MB/s admission budget: five concurrent MPEG-1
// viewers fit per disk. "hot" lives only on msu0.
InstallationConfig FlashCrowdConfig(bool rebalance) {
  InstallationConfig config;
  config.msu_count = 2;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(1.0);
  config.coordinator.rebalance.enabled = rebalance;
  // 2x the stream rate: an 11.25 MB title copies over in ~30 s, well inside
  // the 60 s playout, so convergence is attributable to the rebalancer and
  // not to the first wave of viewers finishing. (Much faster and the copy
  // would drain 256 KB pages quicker than the source's duty cycle can slot
  // them between five live viewers — the source would refuse the prepare.)
  config.coordinator.rebalance.copy_rate = DataRate::MegabitsPerSec(3);
  // Fast popularity decay so the same run also exercises cold-demotion once
  // the crowd leaves (sharing itself stays off).
  config.coordinator.sharing.popularity_halflife = SimTime::Seconds(5);
  return config;
}

constexpr int kCrowd = 8;  // 5 fit on msu0's disk, 3 queue

// The headline scenario: a cold title suddenly dominates the request mix.
// With rebalancing on, the planner copies it to the idle MSU and the queue
// converges to zero; with it off, the same workload leaves viewers starved
// for the whole playout. The delta is the point of the subsystem.
TEST(RebalanceTest, FlashCrowdConvergesOnlyWithRebalancing) {
  for (const bool rebalance : {true, false}) {
    TestCluster cluster(FlashCrowdConfig(rebalance));
    ASSERT_TRUE(cluster.Boot().ok());
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie("hot", SimTime::Seconds(60), 0, false).ok());

    auto client = cluster.AddConnectedClient("c");
    ASSERT_TRUE(client.ok());
    std::vector<GroupId> groups;
    int queued = 0;
    for (int i = 0; i < kCrowd; ++i) {
      auto play = PlayOn(cluster.sim(), **client, "hot", "tv" + std::to_string(i));
      ASSERT_TRUE(play.ok()) << "viewer " << i;
      groups.push_back(play->group);
      if (play->queued) {
        ++queued;
      }
    }
    EXPECT_EQ(queued, 3) << "msu0's disk admits exactly five viewers";

    // Well past the copy window (~32 s) but before the first wave finishes.
    while (cluster.sim().Now() < SimTime::Seconds(45)) {
      cluster.sim().RunFor(SimTime::Millis(100));
    }

    int starved = 0;
    for (int i = 0; i < kCrowd; ++i) {
      ClientDisplayPort* port = (*client)->FindPort("tv" + std::to_string(i));
      ASSERT_NE(port, nullptr);
      if (port->packets_received() == 0) {
        ++starved;
      } else {
        EXPECT_EQ(port->out_of_order(), 0) << "tv" << i;
      }
    }

    if (!rebalance) {
      // Static replica set: the queue is stuck until the first wave finishes.
      EXPECT_EQ(starved, 3);
      EXPECT_EQ(cluster.coordinator().pending_request_count(), 3u);
      continue;
    }

    // Converged: the replica installed, the queue drained onto it, and every
    // viewer is receiving.
    EXPECT_EQ(starved, 0);
    EXPECT_EQ(cluster.coordinator().pending_request_count(), 0u);
    EXPECT_EQ(CounterValue(cluster, "coord.rebalance.copies_started"), 1);
    EXPECT_EQ(CounterValue(cluster, "coord.rebalance.copies_installed"), 1);
    EXPECT_GT(CounterValue(cluster, "repl.pages_copied"), 0);
    auto record = cluster.coordinator().catalog().FindContent("hot");
    ASSERT_TRUE(record.ok());
    ASSERT_EQ((*record)->locations.size(), 2u);
    EXPECT_EQ((*record)->locations[1].msu_node, "msu1");
    EXPECT_TRUE((*record)->locations[1].dynamic);

    // The crowd has gone cold (5 s half-life) but the dynamic replica is
    // still serving the late wave, so it must not be demoted yet.
    EXPECT_EQ(CounterValue(cluster, "coord.rebalance.demotions"), 0);

    // Live delivery never paid for the background copy: every stream's send
    // lateness stayed within the 50 ms SLO for the whole run so far.
    const ClusterReport mid = cluster.installation().BuildClusterReport();
    for (const auto& stream : mid.streams) {
      EXPECT_LT(stream.p99_lateness_us, 50'000) << "stream " << stream.stream_id;
    }

    // Play out. The late wave started ~32 s in, so give it its full 60 s.
    ASSERT_TRUE(RunUntil(cluster.sim(),
                         [&] {
                           for (GroupId group : groups) {
                             if (!(*client)->GroupTerminated(group)) {
                               return false;
                             }
                           }
                           return true;
                         },
                         SimTime::Seconds(90)));
    ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));

    // With the crowd gone and popularity decayed, the planner demotes the
    // now-idle dynamic replica — and only that one.
    ASSERT_TRUE(RunUntil(cluster.sim(),
                         [&] { return CounterValue(cluster, "coord.rebalance.demotions") == 1; },
                         SimTime::Seconds(30)));
    record = cluster.coordinator().catalog().FindContent("hot");
    ASSERT_TRUE(record.ok());
    ASSERT_EQ((*record)->locations.size(), 1u);
    EXPECT_EQ((*record)->locations[0].msu_node, "msu0");

    EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok())
        << cluster.coordinator().ledger().CheckInvariants().ToString();
    EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
    EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  }
}

// A live admission that cannot be placed while a copy holds bandwidth evicts
// the copy: viewers always win over background replication.
TEST(RebalanceTest, LiveAdmissionPreemptsInflightCopy) {
  InstallationConfig config;
  config.msu_count = 2;
  config.msu_machine.disks_per_hba = {1};
  // Two viewers per disk; the default 1.5 Mbit/s copy occupies a third slot's
  // worth of placement bandwidth and takes the full playout to finish.
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.4);
  config.coordinator.rebalance.enabled = true;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(
      cluster.installation().LoadMpegMovie("hot", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "hot", "tva");
  auto b = PlayOn(cluster.sim(), **client, "hot", "tvb");
  auto c = PlayOn(cluster.sim(), **client, "hot", "tvc");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->queued);
  EXPECT_FALSE(b->queued);
  EXPECT_TRUE(c->queued);  // msu0's disk is full; msu1 has no copy yet

  // The queued viewer makes "hot" copy-worthy at the next planner tick.
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().inflight_replication_count() == 1; },
                       SimTime::Seconds(5)));

  // Viewer A leaves. Retrying viewer C needs A's slot back, but the copy's
  // source bandwidth now stands in the way — so the copy dies, not the admit.
  ASSERT_TRUE(QuitGroup(cluster.sim(), **client, a->group).ok());
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return (*client)->FindPort("tvc")->packets_received() > 0; },
                       SimTime::Seconds(10)));
  EXPECT_EQ(CounterValue(cluster, "coord.rebalance.preemptions"), 1);
  EXPECT_EQ(CounterValue(cluster, "coord.rebalance.copies_aborted"), 1);
  EXPECT_EQ(CounterValue(cluster, "coord.rebalance.copies_installed"), 0);
  EXPECT_EQ(cluster.coordinator().pending_request_count(), 0u);
  EXPECT_GT(CounterValue(cluster, "repl.aborts"), 0);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok())
      << cluster.coordinator().ledger().CheckInvariants().ToString();
}

// Runs the flash crowd with a seed-jittered copy-source crash mid-copy, then
// restarts the source. Returns the final ClusterReport for the determinism
// check below.
ClusterReport RunSourceCrashScenario(uint64_t seed) {
  TestCluster cluster(FlashCrowdConfig(true));
  EXPECT_TRUE(cluster.Boot().ok());
  EXPECT_TRUE(
      cluster.installation().LoadMpegMovie("hot", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  EXPECT_TRUE(client.ok());
  for (int i = 0; i < kCrowd; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "hot", "tv" + std::to_string(i));
    EXPECT_TRUE(play.ok()) << "viewer " << i;
  }

  // Kill the copy source mid-transfer (the copy runs ~2 s to ~32 s).
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().inflight_replication_count() == 1; },
                       SimTime::Seconds(5)));
  cluster.sim().RunFor(SimTime::Seconds(4) + SimTime::Millis(static_cast<int64_t>(seed % 997)));
  cluster.msu(0).Crash();

  // The in-flight op is torn down and the target's partial file discarded.
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().inflight_replication_count() == 0; },
                       SimTime::Seconds(10)));
  EXPECT_GT(CounterValue(cluster, "coord.rebalance.copies_aborted"), 0);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok())
      << cluster.coordinator().ledger().CheckInvariants().ToString();

  // Bring the source back. The dead MSU took the whole crowd with it (no
  // other replica existed), so the crowd returns — and this time the re-run
  // copy completes and installs.
  CoResult<Status> restarted;
  Collect(cluster.msu(0).Restart("coordinator"), &restarted);
  EXPECT_TRUE(RunUntil(cluster.sim(), [&] { return restarted.done(); }, SimTime::Seconds(20)));
  EXPECT_TRUE(restarted.value->ok());
  for (int i = 0; i < kCrowd; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "hot", "again" + std::to_string(i));
    EXPECT_TRUE(play.ok()) << "second-wave viewer " << i;
  }
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return CounterValue(cluster, "coord.rebalance.copies_installed") == 1; },
                       SimTime::Seconds(60)));
  auto record = cluster.coordinator().catalog().FindContent("hot");
  EXPECT_TRUE(record.ok());
  if (record.ok()) {
    EXPECT_EQ((*record)->locations.size(), 2u);
  }
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok())
      << cluster.coordinator().ledger().CheckInvariants().ToString();

  cluster.WaitForIdle(SimTime::Seconds(150));
  // Idle() turns true the instant the Coordinator processes the last
  // termination note — on some seeds the ack back to the MSU is still on the
  // wire. Run past the RPC timeout so every in-flight Call completes (or
  // times out) before teardown: a Call frame abandoned mid-await never frees.
  cluster.sim().RunFor(SimTime::Seconds(11));
  return cluster.installation().BuildClusterReport();
}

TEST(RebalanceTest, ChaosCopySourceCrashMidReplication) {
  RunSourceCrashScenario(RebalanceSeed());
}

// Equal seeds must snapshot identical ClusterReports even across a copy-
// source crash: the rebalancer's decisions are part of the deterministic
// replay contract.
TEST(RebalanceTest, ChaosEqualSeedsAreByteIdentical) {
  const uint64_t seed = RebalanceSeed();
  const ClusterReport a = RunSourceCrashScenario(seed);
  const ClusterReport b = RunSourceCrashScenario(seed);
  const ReportDiff diff = DiffClusterReports(a, b);
  EXPECT_TRUE(diff.empty()) << diff.ToText();
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// Primary flip mid-replication: the standby's oplog replay already holds the
// in-flight op, the copy finishes against the new primary, and the queued
// crowd drains onto the fresh replica.
TEST(RebalanceTest, ChaosPrimaryFlipMidReplicationKeepsThePlan) {
  InstallationConfig config = FlashCrowdConfig(true);
  config.standby_coordinator = true;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  ASSERT_TRUE(
      cluster.installation().LoadMpegMovie("hot", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  std::vector<GroupId> groups;
  for (int i = 0; i < kCrowd; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "hot", "tv" + std::to_string(i));
    ASSERT_TRUE(play.ok()) << "viewer " << i;
    groups.push_back(play->group);
  }

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().inflight_replication_count() == 1; },
                       SimTime::Seconds(5)));
  // Synchronous log shipping: the standby's shadow already carries the op,
  // and its ledger both of the copy's holds.
  EXPECT_EQ(standby->inflight_replication_count(), 1u);
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return ExpectStandbyMirrorsPrimary(cluster.installation()); },
                       SimTime::Seconds(2)));
  ASSERT_EQ(cluster.coordinator().inflight_replication_count(), 1u);

  // Kill the primary mid-copy, jittered by the seed sweep.
  cluster.sim().RunFor(SimTime::Seconds(3) +
                       SimTime::Millis(static_cast<int64_t>(RebalanceSeed() % 997)));
  cluster.coordinator().Crash();
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  EXPECT_EQ(standby->inflight_replication_count(), 1u) << "takeover must keep the plan";

  // The copy (MSU-to-MSU, untouched by the flip) completes and installs at
  // the NEW primary; the queue drains onto the replica it placed.
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return standby->pending_request_count() == 0; },
                       SimTime::Seconds(40)));
  auto record = standby->catalog().FindContent("hot");
  ASSERT_TRUE(record.ok());
  ASSERT_EQ((*record)->locations.size(), 2u);
  EXPECT_TRUE((*record)->locations[1].dynamic);
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         for (int i = 0; i < kCrowd; ++i) {
                           ClientDisplayPort* port =
                               (*client)->FindPort("tv" + std::to_string(i));
                           if (port == nullptr || port->packets_received() == 0) {
                             return false;
                           }
                         }
                         return true;
                       },
                       SimTime::Seconds(20)));
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();
}

}  // namespace
}  // namespace calliope
