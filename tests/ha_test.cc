// Warm-standby Coordinator HA tests: epoch-fenced takeover, zero-amnesia
// failover of admitted streams and queued requests, and determinism of the
// whole protocol under a seeded fault schedule.
//
// The load-bearing properties, mirrored from src/coord/replication.h:
//   * Already-admitted streams keep playing across a primary crash — the
//     data path is client<->MSU and the standby's replicated ledger already
//     accounts them.
//   * Queued requests stay queued (synchronous log shipping), and retry
//     outcomes interrupted by the crash are re-queued on takeover.
//   * At most one coordinator owns each epoch, observed from the MSUs'
//     durable epoch records.
//   * Whenever the standby has acknowledged every record and no launch is
//     in flight, its Coordinator::ReplicatedState equals the primary's as a
//     whole: every session, stream, group, queue, shared group, batch, copy
//     and the ledger's balances and holds, including what Snapshot() never
//     emits (ExpectStandbyMirrorsPrimary, tests/test_util.h). The chaos
//     sweeps check it at every quiet point, the takeover cases once before
//     the crash.
//   * Equal seeds produce byte-identical ClusterReports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/obs/report_diff.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

uint64_t HaChaosSeed() {
  const char* env = std::getenv("CALLIOPE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::atoll(env));
  }
  return 1;
}

// Merges every MSU's durable (epoch -> coordinator host) record and fails if
// any epoch was ever claimed by two different hosts: the fencing guarantee.
void ExpectAtMostOnePrimaryPerEpoch(TestCluster& cluster) {
  std::map<int64_t, std::string> owners;
  for (size_t i = 0; i < cluster.msu_count(); ++i) {
    for (const auto& [epoch, host] : cluster.msu(i).coordinator_epochs()) {
      auto [it, inserted] = owners.emplace(epoch, host);
      EXPECT_EQ(it->second, host)
          << "epoch " << epoch << " accepted from two coordinators (msu" << i << ")";
    }
  }
}

TEST(HaTest, KillPrimaryMidWorkloadKeepsAdmittedStreams) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  EXPECT_TRUE(cluster.coordinator().is_primary());
  EXPECT_FALSE(standby->is_primary());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.installation()
                    .LoadMpegMovie("m" + std::to_string(i), SimTime::Seconds(60), i % 2, false)
                    .ok());
  }
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  std::vector<GroupId> groups;
  for (int i = 0; i < 3; ++i) {
    auto play =
        PlayOn(cluster.sim(), **client, "m" + std::to_string(i), "tv" + std::to_string(i));
    ASSERT_TRUE(play.ok()) << play.status().ToString();
    EXPECT_FALSE(play->queued);
    groups.push_back(play->group);
  }
  for (int i = 0; i < 3; ++i) {
    const std::string port = "tv" + std::to_string(i);
    ASSERT_TRUE(RunUntil(
        cluster.sim(), [&] { return (*client)->FindPort(port)->packets_received() > 0; },
        SimTime::Seconds(10)));
  }
  cluster.sim().RunFor(SimTime::Seconds(1));
  std::vector<int64_t> before;
  for (int i = 0; i < 3; ++i) {
    before.push_back((*client)->FindPort("tv" + std::to_string(i))->packets_received());
  }

  const int64_t old_epoch = cluster.coordinator().ha_epoch();
  cluster.coordinator().Crash();
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  EXPECT_GT(standby->ha_epoch(), old_epoch);
  EXPECT_EQ(standby->takeover_count(), 1);

  // The MSUs redial and accept the new epoch.
  ASSERT_TRUE(RunUntil(
      cluster.sim(),
      [&] {
        return cluster.msu(0).coordinator_epoch() == standby->ha_epoch() &&
               cluster.msu(1).coordinator_epoch() == standby->ha_epoch();
      },
      SimTime::Seconds(10)));

  // Zero loss: every admitted stream is still playing and still delivering.
  cluster.sim().RunFor(SimTime::Seconds(2));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE((*client)->GroupTerminated(groups[static_cast<size_t>(i)])) << "group " << i;
    EXPECT_GT((*client)->FindPort("tv" + std::to_string(i))->packets_received(),
              before[static_cast<size_t>(i)])
        << "port " << i;
  }
  EXPECT_EQ(standby->active_stream_count(), 3u);
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();

  // New admissions are served by the survivor once the client has redialed.
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return (*client)->connected(); }, SimTime::Seconds(10)));
  auto late = PlayOn(cluster.sim(), **client, "m3", "tv3");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_FALSE(late->queued);
  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return (*client)->FindPort("tv3")->packets_received() > 0; },
      SimTime::Seconds(10)));
  groups.push_back(late->group);

  ExpectAtMostOnePrimaryPerEpoch(cluster);

  // The dead primary rejoins as the new standby.
  cluster.installation().coordinator().Restart();
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return cluster.coordinator().ha_joined(); },
                       SimTime::Seconds(10)));
  EXPECT_FALSE(cluster.coordinator().is_primary());

  for (GroupId group : groups) {
    EXPECT_TRUE(QuitGroup(cluster.sim(), **client, group).ok());
  }
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return standby->active_stream_count() == 0; },
                       SimTime::Seconds(15)));
  EXPECT_EQ(standby->requests_lost(), 0);
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();
}

// A record the primary logs while a joining standby's snapshot is on the
// wire is not in that snapshot: it must follow as a delta, not be dropped
// when the install is acknowledged. (The sharing chaos sweep at seed 30 lost
// progress offsets this way; here an MSU dies while the standby's ack is
// still travelling back.)
TEST(HaTest, RecordLoggedDuringSnapshotReachesTheStandby) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m", SimTime::Seconds(60), 0, false).ok());
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "m", "tv");
  ASSERT_TRUE(play.ok() && !play->queued);

  standby->Crash();
  cluster.sim().RunFor(SimTime::Seconds(1));
  standby->Restart();
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return standby->ha_joined(); },
                       SimTime::Seconds(10), SimTime::Micros(20)));
  ASSERT_FALSE(cluster.coordinator().standby_in_sync()) << "the install ack already landed";
  cluster.msu(0).Crash();
  EXPECT_FALSE(cluster.coordinator().MsuUp("msu0"));

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return ExpectStandbyMirrorsPrimary(cluster.installation()); },
                       SimTime::Seconds(5)));
  EXPECT_FALSE(standby->MsuUp("msu0"));
}

TEST(HaTest, QueuedRequestSurvivesTakeover) {
  InstallationConfig config;
  config.standby_coordinator = true;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  for (const std::string name : {"a", "b"}) {
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie(name, SimTime::Seconds(60), 0, false, 0).ok());
  }
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto play_a = PlayOn(cluster.sim(), **client, "a", "tva");
  ASSERT_TRUE(play_a.ok());
  EXPECT_FALSE(play_a->queued);
  auto play_b = PlayOn(cluster.sim(), **client, "b", "tvb");
  ASSERT_TRUE(play_b.ok());
  EXPECT_TRUE(play_b->queued);
  // Synchronous log shipping: by the time the client heard "queued", the
  // standby's shadow queue already held the request.
  EXPECT_EQ(standby->pending_request_count(), 1u);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return cluster.coordinator().standby_in_sync(); },
                       SimTime::Seconds(5)));
  EXPECT_TRUE(ExpectStandbyMirrorsPrimary(cluster.installation()));

  cluster.coordinator().Crash();
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  EXPECT_EQ(standby->pending_request_count(), 1u);

  ASSERT_TRUE(RunUntil(
      cluster.sim(),
      [&] {
        return cluster.msu(0).coordinator_epoch() == standby->ha_epoch() &&
               (*client)->connected();
      },
      SimTime::Seconds(10)));

  // VCR commands travel client<->MSU, so quitting works regardless of which
  // coordinator is alive; the MSU's termination note reaches the NEW primary,
  // which frees the disk bandwidth and starts the queued request.
  EXPECT_TRUE(QuitGroup(cluster.sim(), **client, play_a->group).ok());
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return standby->pending_request_count() == 0; },
                       SimTime::Seconds(15)));
  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return (*client)->FindPort("tvb")->packets_received() > 0; },
      SimTime::Seconds(10)));
  EXPECT_EQ(standby->requests_lost(), 0);
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();
}

// One disk that fits one stream, titles "a" and "b" on it, and a client
// whose play of "a" is admitted while the play of "b" queues.
struct QueuedPair {
  QueuedPair() = default;

  CalliopeClient* client = nullptr;
  GroupId playing = 0;
  GroupId queued = 0;
};

QueuedPair BootQueuedPair(TestCluster& cluster) {
  QueuedPair pair;
  EXPECT_TRUE(cluster.Boot().ok());
  for (const std::string name : {"a", "b"}) {
    EXPECT_TRUE(
        cluster.installation().LoadMpegMovie(name, SimTime::Seconds(60), 0, false, 0).ok());
  }
  auto client = cluster.AddConnectedClient("c");
  EXPECT_TRUE(client.ok());
  if (!client.ok()) {
    return pair;
  }
  pair.client = *client;
  auto play_a = PlayOn(cluster.sim(), *pair.client, "a", "tva");
  auto play_b = PlayOn(cluster.sim(), *pair.client, "b", "tvb");
  EXPECT_TRUE(play_a.ok() && !play_a->queued);
  EXPECT_TRUE(play_b.ok() && play_b->queued);
  if (play_a.ok() && play_b.ok()) {
    pair.playing = play_a->group;
    pair.queued = play_b->group;
  }
  return pair;
}

// A queued request the primary expired stays dead on the standby: only a
// retry pop parks in the in-flight list that takeover re-queues, so the new
// primary neither re-expires it nor tells the client a second time.
TEST(HaTest, ExpiredRequestStaysDeadAcrossTakeover) {
  InstallationConfig config;
  config.standby_coordinator = true;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  config.coordinator.pending_deadline = SimTime::Seconds(5);
  TestCluster cluster(config);
  const QueuedPair pair = BootQueuedPair(cluster);
  ASSERT_NE(pair.client, nullptr);
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);

  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return cluster.coordinator().requests_expired() == 1; },
      SimTime::Seconds(10)));
  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return !pair.client->GroupFailure(pair.queued).empty(); },
      SimTime::Seconds(5)));
  EXPECT_EQ(standby->pending_request_count(), 0u);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return cluster.coordinator().standby_in_sync(); },
                       SimTime::Seconds(5)));
  EXPECT_TRUE(ExpectStandbyMirrorsPrimary(cluster.installation()));

  cluster.coordinator().Crash();
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  EXPECT_EQ(standby->pending_request_count(), 0u);
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_EQ(standby->pending_request_count(), 0u);
  EXPECT_EQ(standby->requests_expired(), 0);
  EXPECT_EQ(standby->requests_lost(), 0);
}

// The same for a request the saturation governor shed: its class deadline
// has not passed, so a re-queued copy would be retried and could be admitted
// for a client already told its group is dead.
TEST(HaTest, ShedRequestStaysDeadAcrossTakeover) {
  InstallationConfig config;
  config.standby_coordinator = true;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  config.coordinator.traffic.enabled = true;
  TestCluster cluster(config);
  const QueuedPair pair = BootQueuedPair(cluster);
  ASSERT_NE(pair.client, nullptr);
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);

  cluster.coordinator().SetOverloadProbe([] { return true; });
  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return cluster.coordinator().requests_lost() == 1; },
      SimTime::Seconds(5)));
  EXPECT_EQ(cluster.coordinator().pending_request_count(), 0u);
  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return !pair.client->GroupFailure(pair.queued).empty(); },
      SimTime::Seconds(5)));
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return cluster.coordinator().standby_in_sync(); },
                       SimTime::Seconds(5)));
  EXPECT_TRUE(ExpectStandbyMirrorsPrimary(cluster.installation()));

  cluster.coordinator().Crash();
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  EXPECT_EQ(standby->pending_request_count(), 0u);
  EXPECT_TRUE(RunUntil(cluster.sim(), [&] { return pair.client->connected(); },
                       SimTime::Seconds(10)));
  EXPECT_TRUE(QuitGroup(cluster.sim(), *pair.client, pair.playing).ok());
  cluster.sim().RunFor(SimTime::Seconds(3));
  EXPECT_EQ(standby->pending_request_count(), 0u);
  EXPECT_EQ(standby->active_stream_count(), 0u) << "the shed request was admitted after all";
  EXPECT_EQ(pair.client->FindPort("tvb")->packets_received(), 0);
}

// Where a sharing test kills the primary. kSplitDuringTakeover also pauses a
// member right after the kill, so the MSU splits it off its shared group
// while no primary is reachable. The two mid-launch kills wait until the
// standby holds the launch's parked requests and the MsuStartGroup call is
// still outstanding: the shared group's first launch, or a split member's
// solo re-admission after a pause.
enum class SharingKill {
  kMidSharedGroup,
  kAfterCacheAttach,
  kInsideBatchWindow,
  kSplitDuringTakeover,
  kMidSharedLaunch,
  kMidSplitReadmission
};

// Shared groups, cache-horizon attaches and open batches are oplog records
// like any admission: killing the primary at each point leaves the new
// primary serving every member, with a ledger that drains once they quit.
void RunSharingTakeover(SharingKill kill) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  config.coordinator.sharing.enabled = true;
  config.msu.cache_memory = Bytes::MiB(32);
  if (kill == SharingKill::kMidSplitReadmission) {
    // A quicker request handler lets the split record reach the standby
    // before the MSU acknowledges the solo re-admission.
    config.coordinator.request_compute = SimTime::Micros(100);
  }
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(60), 0, false).ok());
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  std::vector<std::string> ports = {"tv0", "tv1"};
  std::vector<GroupId> groups;
  for (const std::string& port : ports) {
    auto play = PlayOn(cluster.sim(), **client, "m0", port);
    ASSERT_TRUE(play.ok()) << play.status().ToString();
    groups.push_back(play->group);
  }
  auto all_receive_beyond = [&](const std::vector<int64_t>& marks) {
    for (size_t i = 0; i < ports.size(); ++i) {
      if ((*client)->FindPort(ports[i])->packets_received() <= marks[i]) {
        return false;
      }
    }
    return true;
  };
  if (kill != SharingKill::kInsideBatchWindow && kill != SharingKill::kMidSharedLaunch) {
    ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return all_receive_beyond({0, 0}); },
                         SimTime::Seconds(5)));
    cluster.sim().RunFor(SimTime::Seconds(2));
  }
  if (kill == SharingKill::kAfterCacheAttach) {
    auto trailer = PlayOn(cluster.sim(), **client, "m0", "tv2");
    ASSERT_TRUE(trailer.ok()) << trailer.status().ToString();
    ports.push_back("tv2");
    groups.push_back(trailer->group);
    EXPECT_EQ(cluster.installation().metrics().Snapshot().counters.at("coord.groups.attaches"),
              1);
  }
  CoResult<Status> paused;
  if (kill == SharingKill::kMidSplitReadmission) {
    Collect((*client)->Vcr(groups[0], VcrCommand::Op::kPause), &paused);
  }
  if (kill == SharingKill::kMidSharedLaunch || kill == SharingKill::kMidSplitReadmission) {
    const size_t parked = kill == SharingKill::kMidSharedLaunch ? 2 : 1;
    Coordinator& primary = cluster.coordinator();
    ASSERT_TRUE(RunUntil(
        cluster.sim(),
        [&] {
          return primary.inflight_retry_count() == parked &&
                 standby->inflight_retry_count() == parked;
        },
        SimTime::Seconds(5), SimTime::Micros(50)))
        << "never caught the launch outstanding with its requests parked on the standby";
  } else {
    ASSERT_TRUE(RunUntil(cluster.sim(),
                         [&] { return cluster.coordinator().standby_in_sync(); },
                         SimTime::Seconds(1)));
    EXPECT_TRUE(ExpectStandbyMirrorsPrimary(cluster.installation()));
  }
  std::vector<int64_t> before;
  for (const std::string& port : ports) {
    before.push_back((*client)->FindPort(port)->packets_received());
  }

  cluster.coordinator().Crash();
  if (kill == SharingKill::kSplitDuringTakeover) {
    EXPECT_TRUE(VcrOp(cluster.sim(), **client, groups[0], VcrCommand::Op::kPause).ok());
  }
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  if (kill == SharingKill::kSplitDuringTakeover) {
    // The new primary learns of the split once the MSU redials, and
    // re-admits the member as a paused solo stream.
    MetricsRegistry& metrics = cluster.installation().metrics();
    EXPECT_TRUE(RunUntil(
        cluster.sim(),
        [&] { return metrics.Snapshot().counters.at("coord2.groups.splits") == 1; },
        SimTime::Seconds(10)));
    EXPECT_TRUE(VcrOp(cluster.sim(), **client, groups[0], VcrCommand::Op::kPlay).ok());
  }
  if (kill == SharingKill::kMidSplitReadmission) {
    // Takeover re-queued the parked re-admission; it starts paused once the
    // MSU has redialed, next to the delivery stream and the other member.
    EXPECT_TRUE(RunUntil(cluster.sim(), [&] { return paused.done(); }, SimTime::Seconds(5)));
    EXPECT_TRUE(RunUntil(
        cluster.sim(),
        [&] {
          return standby->active_stream_count() == 3 && standby->pending_request_count() == 0;
        },
        SimTime::Seconds(10)));
    EXPECT_TRUE(VcrOp(cluster.sim(), **client, groups[0], VcrCommand::Op::kPlay).ok());
  }
  EXPECT_TRUE(RunUntil(cluster.sim(), [&] { return all_receive_beyond(before); },
                       SimTime::Seconds(10)))
      << "a member stopped receiving after the takeover";
  // And still receives once every MSU has redialed and quit the streams the
  // new primary does not know.
  EXPECT_TRUE(RunUntil(
      cluster.sim(),
      [&] {
        return cluster.msu(0).coordinator_epoch() == standby->ha_epoch() &&
               cluster.msu(1).coordinator_epoch() == standby->ha_epoch();
      },
      SimTime::Seconds(10)));
  cluster.sim().RunFor(SimTime::Seconds(1));
  for (size_t i = 0; i < ports.size(); ++i) {
    before[i] = (*client)->FindPort(ports[i])->packets_received();
  }
  EXPECT_TRUE(RunUntil(cluster.sim(), [&] { return all_receive_beyond(before); },
                       SimTime::Seconds(10)))
      << "a member stopped receiving once the MSUs reconciled with the new primary";
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();
  EXPECT_EQ(standby->requests_lost(), 0);
  // The batch the old primary left open forms its group on the new one; the
  // waiters of a launch it never finished re-queue and start solo.
  const MetricsSnapshot metrics = cluster.installation().metrics().Snapshot();
  if (kill == SharingKill::kMidSharedLaunch) {
    EXPECT_EQ(metrics.counters.at("coord.groups.formed"), 0);
    EXPECT_EQ(metrics.counters.at("coord2.groups.formed"), 0);
  } else {
    const std::string formed_by = kill == SharingKill::kInsideBatchWindow
                                      ? "coord2.groups.formed"
                                      : "coord.groups.formed";
    EXPECT_EQ(metrics.counters.at(formed_by), 1);
  }
  for (GroupId group : groups) {
    EXPECT_EQ((*client)->GroupFailure(group), "") << "group " << group;
  }

  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return (*client)->connected(); }, SimTime::Seconds(10)));
  for (GroupId group : groups) {
    EXPECT_TRUE(QuitGroup(cluster.sim(), **client, group).ok());
  }
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return standby->active_stream_count() == 0 &&
                                standby->ledger().outstanding_holds() == 0;
                       },
                       SimTime::Seconds(15)));
  EXPECT_EQ(standby->ledger().TotalReserved(), DataRate());
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();
}

TEST(HaTest, SharingSurvivesPrimaryKillMidSharedGroup) {
  RunSharingTakeover(SharingKill::kMidSharedGroup);
}

TEST(HaTest, SharingSurvivesPrimaryKillAfterCacheAttach) {
  RunSharingTakeover(SharingKill::kAfterCacheAttach);
}

TEST(HaTest, SharingSurvivesPrimaryKillInsideBatchWindow) {
  RunSharingTakeover(SharingKill::kInsideBatchWindow);
}

TEST(HaTest, SharingSurvivesSplitDuringTakeover) {
  RunSharingTakeover(SharingKill::kSplitDuringTakeover);
}

TEST(HaTest, SharingSurvivesPrimaryKillMidSharedLaunch) {
  RunSharingTakeover(SharingKill::kMidSharedLaunch);
}

TEST(HaTest, SharingSurvivesPrimaryKillMidSplitReadmission) {
  RunSharingTakeover(SharingKill::kMidSplitReadmission);
}

TEST(HaTest, TerminationNoteOutlivesThePrimary) {
  InstallationConfig config;
  config.standby_coordinator = true;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  for (const std::string name : {"a", "b"}) {
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie(name, SimTime::Seconds(60), 0, false, 0).ok());
  }
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto play_a = PlayOn(cluster.sim(), **client, "a", "tva");
  ASSERT_TRUE(play_a.ok());
  EXPECT_FALSE(play_a->queued);
  auto play_b = PlayOn(cluster.sim(), **client, "b", "tvb");
  ASSERT_TRUE(play_b.ok());
  EXPECT_TRUE(play_b->queued);

  // Quit `a` and kill the primary in the same instant: the MSU's
  // StreamTerminated note cannot land on the dying primary. It parks in the
  // MSU's durable note spool, the standby takes over, the MSU re-registers
  // and flushes the note — and only then can the queued request start. The
  // retry trigger itself must survive the takeover.
  CoResult<Status> quit;
  Collect((*client)->Quit(play_a->group), &quit);
  cluster.coordinator().Crash();
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return quit.done(); }, SimTime::Seconds(10)));
  EXPECT_TRUE(quit.value->ok()) << quit.value->ToString();

  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return standby->pending_request_count() == 0; },
                       SimTime::Seconds(20)));
  ASSERT_TRUE(RunUntil(
      cluster.sim(), [&] { return (*client)->FindPort("tvb")->packets_received() > 0; },
      SimTime::Seconds(10)));
  EXPECT_EQ(standby->requests_lost(), 0);
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();
}

TEST(HaTest, KillPrimaryWhileMsuFailoverIsInFlight) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  Coordinator* standby = cluster.installation().standby_coordinator();
  ASSERT_NE(standby, nullptr);
  for (int i = 0; i < 2; ++i) {
    const std::string name = "m" + std::to_string(i);
    ASSERT_TRUE(cluster.installation().LoadMpegMovie(name, SimTime::Seconds(60), 0, false).ok());
    ASSERT_TRUE(cluster.installation().ReplicateContent(name, 1).ok());
  }
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  std::vector<GroupId> groups;
  for (int i = 0; i < 2; ++i) {
    const std::string port = "tv" + std::to_string(i);
    auto play = PlayOn(cluster.sim(), **client, "m" + std::to_string(i), port);
    ASSERT_TRUE(play.ok());
    ASSERT_FALSE(play->queued);
    groups.push_back(play->group);
    ASSERT_TRUE(RunUntil(
        cluster.sim(), [&] { return (*client)->FindPort(port)->packets_received() > 0; },
        SimTime::Seconds(10)));
  }

  // Kill the MSU, give the primary 50ms to start failing groups over to the
  // replica, then kill the primary mid-flight. The standby must finish the
  // job from its shadow state (the takeover sweep retries groups whose
  // failover never logged an outcome).
  cluster.msu(0).Crash();
  cluster.sim().RunFor(SimTime::Millis(50));
  cluster.coordinator().Crash();
  ASSERT_TRUE(
      RunUntil(cluster.sim(), [&] { return standby->is_primary(); }, SimTime::Seconds(10)));

  // Every group ends up playing on the survivor MSU; none is lost.
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return cluster.msu(1).active_stream_count() == 2; },
                       SimTime::Seconds(20)));
  for (GroupId group : groups) {
    EXPECT_FALSE((*client)->GroupTerminated(group));
  }
  EXPECT_FALSE(standby->MsuUp("msu0"));
  EXPECT_TRUE(standby->ledger().CheckInvariants().ok())
      << standby->ledger().CheckInvariants().ToString();

  // And they actually deliver from the survivor.
  std::vector<int64_t> mark;
  for (int i = 0; i < 2; ++i) {
    mark.push_back((*client)->FindPort("tv" + std::to_string(i))->packets_received());
  }
  cluster.sim().RunFor(SimTime::Seconds(2));
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT((*client)->FindPort("tv" + std::to_string(i))->packets_received(),
              mark[static_cast<size_t>(i)])
        << "port " << i;
  }
  ExpectAtMostOnePrimaryPerEpoch(cluster);
}

// One full soak pass: three streams play while the primaryship flips four
// times (crash the current primary, wait for takeover, restart the corpse,
// wait for it to rejoin as standby). Returns the final ClusterReport JSON.
ClusterReport RunPrimaryFlipSoak(uint64_t seed) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  config.seed = seed;
  TestCluster cluster(config);
  EXPECT_TRUE(cluster.Boot().ok());
  Coordinator* first = &cluster.coordinator();
  Coordinator* second = cluster.installation().standby_coordinator();
  EXPECT_NE(second, nullptr);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cluster.installation()
                    .LoadMpegMovie("m" + std::to_string(i), SimTime::Seconds(120), i % 2, false)
                    .ok());
  }
  auto client = cluster.AddConnectedClient("c");
  EXPECT_TRUE(client.ok());
  std::vector<GroupId> groups;
  for (int i = 0; i < 3; ++i) {
    auto play =
        PlayOn(cluster.sim(), **client, "m" + std::to_string(i), "tv" + std::to_string(i));
    EXPECT_TRUE(play.ok());
    if (play.ok()) {
      groups.push_back(play->group);
    }
  }
  cluster.sim().RunFor(SimTime::Seconds(1));

  for (int flip = 0; flip < 4; ++flip) {
    Coordinator* primary = (!first->crashed() && first->is_primary()) ? first : second;
    Coordinator* survivor = primary == first ? second : first;
    primary->Crash();
    EXPECT_TRUE(RunUntil(cluster.sim(),
                         [&] { return !survivor->crashed() && survivor->is_primary(); },
                         SimTime::Seconds(10)))
        << "flip " << flip;
    primary->Restart();
    EXPECT_TRUE(
        RunUntil(cluster.sim(), [&] { return primary->ha_joined(); }, SimTime::Seconds(10)))
        << "flip " << flip;
    EXPECT_TRUE(survivor->ledger().CheckInvariants().ok())
        << "flip " << flip << ": " << survivor->ledger().CheckInvariants().ToString();
    // No admitted stream was lost by this flip.
    for (GroupId group : groups) {
      EXPECT_FALSE((*client)->GroupTerminated(group)) << "flip " << flip;
    }
  }
  ExpectAtMostOnePrimaryPerEpoch(cluster);

  EXPECT_TRUE(
      RunUntil(cluster.sim(), [&] { return (*client)->connected(); }, SimTime::Seconds(10)));
  for (GroupId group : groups) {
    EXPECT_TRUE(QuitGroup(cluster.sim(), **client, group).ok());
  }
  Coordinator* primary =
      (!first->crashed() && first->is_primary()) ? first : second;
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return primary->active_stream_count() == 0 &&
                                primary->pending_request_count() == 0;
                       },
                       SimTime::Seconds(20)));
  EXPECT_EQ(primary->requests_lost(), 0);
  EXPECT_TRUE(primary->ledger().CheckInvariants().ok())
      << primary->ledger().CheckInvariants().ToString();
  return cluster.installation().BuildClusterReport();
}

TEST(HaTest, PrimaryFlipSoakKeepsStreamsAndIsDeterministic) {
  const ClusterReport one = RunPrimaryFlipSoak(1996);
  const ClusterReport two = RunPrimaryFlipSoak(1996);
  // Zero-tolerance structural diff: same strength as byte equality, but a
  // regression names the first diverging field instead of two JSON blobs.
  const ReportDiff diff = DiffClusterReports(one, two);
  EXPECT_TRUE(diff.empty()) << "equal seeds must produce identical ClusterReports:\n"
                            << diff.ToText();
}

// Seeded chaos with coordinator-crash faults in the mix: the fault injector
// kills whichever coordinator is primary (possibly repeatedly) while link
// faults and disk faults fire, then restarts it. Throughout, the standby must
// mirror the primary at every quiet point; afterwards the cluster must
// quiesce cleanly under ONE primary, with the fencing record intact. With
// `sharing`, eight viewers pick titles by Zipf(1.0) so shared groups and
// batches form, two late viewers trail them (cache attaches), and VCR churn
// splits members out of them.
ClusterReport RunHaChaos(uint64_t seed, int64_t* crashes_out, bool sharing = false) {
  InstallationConfig config;
  config.msu_count = 2;
  config.standby_coordinator = true;
  config.seed = seed;
  config.coordinator.sharing.enabled = sharing;
  if (sharing) {
    config.msu.cache_memory = Bytes::MiB(32);
  }
  TestCluster cluster(config);
  EXPECT_TRUE(cluster.Boot().ok());
  const int titles = sharing ? 4 : 3;
  for (int i = 0; i < titles; ++i) {
    const std::string name = "m" + std::to_string(i);
    EXPECT_TRUE(cluster.installation().LoadMpegMovie(name, SimTime::Seconds(45), 0, false).ok());
    EXPECT_TRUE(cluster.installation().ReplicateContent(name, 1).ok());
  }
  FaultPlanOptions options;
  options.msu_nodes = {"msu0", "msu1"};
  options.other_nodes = {"coordinator", "coordinator2", "c"};
  options.include_msu_crash = false;
  options.include_coordinator_restart = false;
  options.include_coordinator_crash = true;
  options.horizon = SimTime::Seconds(20);
  FaultPlan plan = FaultPlan::Random(seed, options);
  EXPECT_TRUE(plan.HasClass(FaultClass::kCoordinatorCrash));
  EXPECT_TRUE(cluster.installation().ApplyFaultPlan(std::move(plan)).ok());

  Rng rng(seed);
  ZipfDistribution zipf(static_cast<size_t>(titles), 1.0);
  auto client = cluster.AddConnectedClient("c");
  EXPECT_TRUE(client.ok());
  std::vector<GroupId> groups;
  if (client.ok()) {
    for (int i = 0; i < (sharing ? 8 : 3); ++i) {
      const size_t title = sharing ? zipf.Sample(rng) : static_cast<size_t>(i);
      auto play = PlayOn(cluster.sim(), **client, "m" + std::to_string(title),
                         "tv" + std::to_string(i));
      if (play.ok() && !play->queued) {
        groups.push_back(play->group);
      }
    }
  }

  const std::vector<std::string> late_ports = {"late0", "late1"};
  if (sharing && client.ok()) {
    for (const std::string& port : late_ports) {
      EXPECT_TRUE(RegisterClientPort(cluster.sim(), **client, port, "mpeg1").ok());
    }
  }

  // Ride out the fault schedule plus the longest possible outage, checking
  // the standby at every quiet point. Sharing runs add the late viewers
  // three seconds in and issue a VCR op on a random viewer every second.
  std::deque<CoResult<Status>> vcr_ops;
  std::deque<CoResult<Result<CalliopeClient::StartResult>>> late_plays;
  int quiet_points = 0;
  for (int step = 1; step <= 104; ++step) {
    cluster.sim().RunFor(SimTime::Millis(250));
    if (ExpectStandbyMirrorsPrimary(cluster.installation())) {
      ++quiet_points;
    }
    if (sharing && client.ok() && step == 12) {
      for (const std::string& port : late_ports) {
        Collect((*client)->Play("m" + std::to_string(zipf.Sample(rng)), port),
                &late_plays.emplace_back());
      }
    }
    if (sharing && client.ok() && !groups.empty() && step % 4 == 0) {
      const GroupId group = groups[rng.NextBelow(groups.size())];
      const VcrCommand::Op ops[] = {VcrCommand::Op::kPause, VcrCommand::Op::kPlay,
                                    VcrCommand::Op::kSeek};
      const VcrCommand::Op op = ops[rng.NextBelow(3)];
      Collect((*client)->Vcr(group, op, SimTime::Seconds(static_cast<int64_t>(rng.NextBelow(30)))),
              &vcr_ops.emplace_back());
    }
  }
  EXPECT_GT(quiet_points, 0) << "the standby was never checked against the primary";
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         Coordinator& primary = cluster.installation().current_primary();
                         return !primary.crashed() && primary.is_primary();
                       },
                       SimTime::Seconds(10)));

  // Quiesce: quit what still plays (45s movies may simply have finished) and
  // drain; equal seeds must agree on every counter that follows.
  for (const auto& late : late_plays) {
    if (late.done() && late.value->ok() && !(*late.value)->queued) {
      groups.push_back((*late.value)->group);
    }
  }
  if (client.ok()) {
    for (GroupId group : groups) {
      if (!(*client)->GroupTerminated(group)) {
        (void)QuitGroup(cluster.sim(), **client, group);
      }
    }
  }
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         Coordinator& primary = cluster.installation().current_primary();
                         return !primary.crashed() && primary.active_stream_count() == 0 &&
                                primary.pending_request_count() == 0;
                       },
                       SimTime::Seconds(60)));
  Coordinator& primary = cluster.installation().current_primary();
  EXPECT_TRUE(primary.ledger().CheckInvariants().ok())
      << primary.ledger().CheckInvariants().ToString();
  EXPECT_EQ(primary.ledger().outstanding_holds(), 0u);
  // A reservation still uncommitted here would also have switched the mirror
  // check off at every later quiet point.
  EXPECT_TRUE(NoReservationInFlight(primary.ledger()));
  ExpectAtMostOnePrimaryPerEpoch(cluster);
  if (crashes_out != nullptr) {
    *crashes_out = cluster.installation().fault_injector()->coordinator_crashes();
  }
  const ClusterReport report = cluster.installation().BuildClusterReport();
  // Per-packet purity: HA runs keep the default fidelity config, so every
  // takeover/failover invariant above held under the bit-exact per-packet
  // model — the flow fast path must never have engaged (DESIGN.md §5.5).
  const auto flow_chunks = report.metrics.counters.find("sim.flow.chunks");
  EXPECT_TRUE(flow_chunks != report.metrics.counters.end());
  if (flow_chunks != report.metrics.counters.end()) {
    EXPECT_EQ(flow_chunks->second, 0) << "flow-mode chunks in an HA chaos run";
  }
  return report;
}

TEST(HaTest, ChaosWithCoordinatorCrashesPreservesInvariants) {
  int64_t crashes = 0;
  (void)RunHaChaos(HaChaosSeed(), &crashes);
  EXPECT_GE(crashes, 1) << "the plan guarantees at least one coordinator-crash event";
}

TEST(HaTest, ChaosIdenticalSeedsProduceIdenticalReports) {
  const uint64_t seed = HaChaosSeed();
  int64_t first_crashes = 0;
  int64_t second_crashes = 0;
  const ClusterReport one = RunHaChaos(seed, &first_crashes);
  const ClusterReport two = RunHaChaos(seed, &second_crashes);
  const ReportDiff diff = DiffClusterReports(one, two);
  EXPECT_TRUE(diff.empty()) << diff.ToText();
  EXPECT_EQ(first_crashes, second_crashes);
}

TEST(HaTest, ChaosWithSharingPreservesInvariants) {
  int64_t crashes = 0;
  const ClusterReport report = RunHaChaos(HaChaosSeed(), &crashes, /*sharing=*/true);
  EXPECT_GE(crashes, 1) << "the plan guarantees at least one coordinator-crash event";
  const auto formed = report.metrics.counters.find("coord.groups.formed");
  ASSERT_TRUE(formed != report.metrics.counters.end());
  EXPECT_GT(formed->second, 0) << "no shared group formed";
}

TEST(HaTest, ChaosWithSharingIdenticalSeedsProduceIdenticalReports) {
  const uint64_t seed = HaChaosSeed();
  const ClusterReport one = RunHaChaos(seed, nullptr, /*sharing=*/true);
  const ClusterReport two = RunHaChaos(seed, nullptr, /*sharing=*/true);
  const ReportDiff diff = DiffClusterReports(one, two);
  EXPECT_TRUE(diff.empty()) << diff.ToText();
}

}  // namespace
}  // namespace calliope
