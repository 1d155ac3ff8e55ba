// System tests for popularity-aware stream sharing (DESIGN §5.6): shared
// delivery groups formed by batch-window coalescing, the per-MSU
// interval/prefix page cache, VCR splits, the cache-memory ledger column,
// and the Zipf capacity claim (shared mode admits at least twice the viewers
// of the unique-stream baseline on the same topology).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

// Seed for the Zipf title picks and the fault-timing jitter; ctest sweeps it
// through CALLIOPE_CHAOS_SEED exactly like the chaos harness.
uint64_t SharingSeed() {
  const char* env = std::getenv("CALLIOPE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1996;
}

// `buffer_count` sizes each MSU's stream-buffer pool (two buffers per
// stream), so a test can make the MSU refuse a launch the ledger admitted.
InstallationConfig SharingConfigFor(int msu_count, int buffer_count = MsuParams().buffer_count) {
  InstallationConfig config;
  config.msu_count = msu_count;
  config.coordinator.sharing.enabled = true;
  config.msu.cache_memory = Bytes::MiB(32);
  config.msu.buffer_count = buffer_count;
  return config;
}

int64_t CounterValue(TestCluster& cluster, const std::string& name) {
  return cluster.installation().metrics().Snapshot().counters.at(name);
}

// Two viewers asking for one title within the batch window ride a single
// disk stream; a third viewer of a different title gets its own delivery
// group. The ledger charges one disk-bandwidth hold per *title*, not per
// viewer.
TEST(SharingTest, BatchWindowCoalescesSameTitleRequests) {
  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m1", SimTime::Seconds(10), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  auto c = PlayOn(cluster.sim(), **client, "m1", "tv2");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->group, b->group);  // every viewer keeps its own group id

  // Let both batch windows close and the deliveries start.
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.formed"), 2);
  EXPECT_EQ(CounterValue(cluster, "coord.groups.members"), 3);
  // Delivery streams + member bookkeeping: m0's delivery + 2 members, m1's
  // delivery + 1 member.
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 5u);
  // Exactly two disk streams worth of bandwidth across the MSU's disks.
  const DataRate mpeg1 = DataRate::MegabitsPerSec(1.5);
  DataRate reserved;
  for (int d = 0; d < 2; ++d) {
    reserved = reserved + cluster.coordinator().DiskLoad("msu0", d);
  }
  EXPECT_EQ(reserved, mpeg1 + mpeg1);

  // Every viewer actually receives media despite the shared disk stream.
  cluster.sim().RunFor(SimTime::Seconds(2));
  for (const char* port : {"tv0", "tv1", "tv2"}) {
    ClientDisplayPort* p = (*client)->FindPort(port);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->packets_received(), 0) << port;
    EXPECT_EQ(p->out_of_order(), 0) << port;
  }

  // Play to the end: all groups terminate and the ledger fully drains —
  // member holds (NIC-only) and delivery holds (disk) both come back.
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(a->group) &&
                                (*client)->GroupTerminated(b->group) &&
                                (*client)->GroupTerminated(c->group);
                       },
                       SimTime::Seconds(20)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
}

// A viewer arriving after the batch window but within the cache horizon
// attaches as a cache-fed solo stream: no additional disk bandwidth, and its
// reads hit the interval cache the leading delivery stream fills.
TEST(SharingTest, TrailingViewerRidesIntervalCache) {
  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(12), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto leader = PlayOn(cluster.sim(), **client, "m0", "lead");
  ASSERT_TRUE(leader.ok());
  cluster.sim().RunFor(SimTime::Seconds(3));  // delivery under way, pages cached

  const DataRate mpeg1 = DataRate::MegabitsPerSec(1.5);
  DataRate before;
  for (int d = 0; d < 2; ++d) {
    before = before + cluster.coordinator().DiskLoad("msu0", d);
  }
  EXPECT_EQ(before, mpeg1);  // one disk stream for the leader

  auto trailer = PlayOn(cluster.sim(), **client, "m0", "trail");
  ASSERT_TRUE(trailer.ok());
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.attaches"), 1);
  // The trailing viewer consumed no disk bandwidth...
  DataRate after;
  for (int d = 0; d < 2; ++d) {
    after = after + cluster.coordinator().DiskLoad("msu0", d);
  }
  EXPECT_EQ(after, mpeg1);
  // ...because its reads come from the interval cache.
  EXPECT_GT(CounterValue(cluster, "sim.cache.insertions"), 0);
  EXPECT_GT(CounterValue(cluster, "sim.cache.interval_hits"), 0);

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(leader->group) &&
                                (*client)->GroupTerminated(trailer->group);
                       },
                       SimTime::Seconds(30)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  // Both viewers saw the whole title.
  ClientDisplayPort* lead = (*client)->FindPort("lead");
  ClientDisplayPort* trail = (*client)->FindPort("trail");
  ASSERT_NE(lead, nullptr);
  ASSERT_NE(trail, nullptr);
  EXPECT_EQ(lead->bytes_received().count(), trail->bytes_received().count());
  EXPECT_EQ(trail->out_of_order(), 0);
  // Cache-memory ledger column fully refunded.
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
}

// A shared group the MSU refuses (no buffers at all) degrades: both waiters
// queue as unique streams, their retries are refused too, and each client is
// told its group failed. Nothing stays reserved.
TEST(SharingTest, SharedGroupRefusedByMsuQueuesThenFailsWaiters) {
  TestCluster cluster(SharingConfigFor(1, /*buffer_count=*/1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(a->group) &&
                                (*client)->GroupTerminated(b->group);
                       },
                       SimTime::Seconds(5)));
  EXPECT_FALSE((*client)->GroupFailure(a->group).empty());
  EXPECT_FALSE((*client)->GroupFailure(b->group).empty());
  EXPECT_EQ(CounterValue(cluster, "coord.groups.formed"), 0);
  // Each waiter's solo retry out of the queue was refused.
  EXPECT_EQ(CounterValue(cluster, "coord.admissions.rejected"), 2);
  EXPECT_EQ(cluster.coordinator().requests_lost(), 2);
  EXPECT_EQ(cluster.msu(0).active_stream_count(), 0);
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(5)));
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
}

// A trailing viewer whose cache attach the MSU refuses (its buffer pool
// holds one stream, the leader's delivery) falls back to a batch, whose
// shared launch and solo retry are refused in turn. The leader plays on, and
// the ledger drains once it quits.
TEST(SharingTest, CacheAttachRefusedByMsuFallsBackToBatch) {
  TestCluster cluster(SharingConfigFor(1, /*buffer_count=*/2));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto leader = PlayOn(cluster.sim(), **client, "m0", "lead");
  ASSERT_TRUE(leader.ok());
  cluster.sim().RunFor(SimTime::Seconds(3));
  ASSERT_EQ(CounterValue(cluster, "coord.groups.formed"), 1);

  auto trailer = PlayOn(cluster.sim(), **client, "m0", "trail");
  ASSERT_TRUE(trailer.ok());
  EXPECT_FALSE(trailer->queued);  // batched, not queued
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return (*client)->GroupTerminated(trailer->group); },
                       SimTime::Seconds(5)));
  EXPECT_FALSE((*client)->GroupFailure(trailer->group).empty());
  EXPECT_EQ(CounterValue(cluster, "coord.groups.attaches"), 0);
  EXPECT_EQ(CounterValue(cluster, "coord.groups.formed"), 1);
  EXPECT_EQ(CounterValue(cluster, "coord.admissions.rejected"), 1);
  EXPECT_EQ(cluster.msu(0).active_stream_count(), 1);

  ClientDisplayPort* lead = (*client)->FindPort("lead");
  ASSERT_NE(lead, nullptr);
  const int64_t received = lead->packets_received();
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_GT(lead->packets_received(), received);
  ASSERT_TRUE(QuitGroup(cluster.sim(), **client, leader->group).ok());
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(5)));
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
}

// What each of three viewers of one title received when the middle one
// paused out of their flow-fidelity shared group at `split_at` and resumed a
// second later. With `paused_neighbour`, a viewer of another title sits
// paused on the same MSU: a packet-fidelity neighbour caps flow chunks at 8
// records, so each page goes out as several chunks.
struct ViewerTotals {
  std::vector<int64_t> packets;
  std::vector<int64_t> bytes;
  std::vector<int64_t> out_of_order;
  // Records that left the MSU with an earlier media offset than one already
  // sent to the same port. Sequence numbers are stamped at send time, so
  // out_of_order alone cannot see a chunk sent after a later one.
  std::vector<int64_t> media_reorders;
};

ViewerTotals RunFlowSplitAt(SimTime split_at, bool paused_neighbour) {
  ViewerTotals out;
  InstallationConfig config = SharingConfigFor(1);
  config.msu.fidelity.default_mode = Fidelity::kFlow;
  config.msu.fidelity.quiet_window = SimTime::Millis(500);
  struct PortOrder {
    SimTime last;
    int64_t reorders = 0;
  };
  std::map<int, PortOrder> order;  // by client UDP port; outlives the cluster
  TestCluster cluster(config);
  EXPECT_TRUE(cluster.Boot().ok());
  EXPECT_TRUE(
      cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
  EXPECT_TRUE(
      cluster.installation().LoadMpegMovie("m1", SimTime::Seconds(10), 0, false).ok());
  cluster.network().set_fault_hook([&order](const Datagram& datagram) {
    if (datagram.proto == Datagram::Proto::kUdp && datagram.src_node == "msu0") {
      const auto& media = *std::static_pointer_cast<const MediaDatagramPayload>(datagram.payload);
      PortOrder& port = order[datagram.dst_port];
      auto see = [&port](SimTime offset) {
        port.reorders += offset < port.last ? 1 : 0;
        port.last = std::max(port.last, offset);
      };
      if (media.flow_count > 0) {
        for (const auto& record : media.flow_records) {
          see(record.delivery_offset);
        }
      } else {
        see(media.packet.delivery_offset);
      }
    }
    return LinkFault();
  });
  auto client = cluster.AddConnectedClient("c");
  EXPECT_TRUE(client.ok());
  if (!client.ok()) {
    return out;
  }
  std::vector<GroupId> groups;
  for (int i = 0; i < 3; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "m0", "tv" + std::to_string(i));
    EXPECT_TRUE(play.ok());
    if (play.ok()) {
      groups.push_back(play->group);
    }
  }
  GroupId neighbour = 0;
  if (paused_neighbour) {
    auto play = PlayOn(cluster.sim(), **client, "m1", "other");
    EXPECT_TRUE(play.ok());
    if (play.ok()) {
      neighbour = play->group;
      EXPECT_TRUE(VcrOp(cluster.sim(), **client, neighbour, VcrCommand::Op::kPause).ok());
    }
  }
  if (groups.size() != 3 || cluster.sim().Now() >= split_at) {
    ADD_FAILURE() << "viewers not playing before the split instant";
    return out;
  }
  cluster.sim().RunUntil(split_at);
  EXPECT_TRUE(VcrOp(cluster.sim(), **client, groups[1], VcrCommand::Op::kPause).ok());
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_TRUE(VcrOp(cluster.sim(), **client, groups[1], VcrCommand::Op::kPlay).ok());
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         for (GroupId group : groups) {
                           if (!(*client)->GroupTerminated(group)) {
                             return false;
                           }
                         }
                         return true;
                       },
                       SimTime::Seconds(30)));
  if (neighbour != 0) {
    EXPECT_TRUE(QuitGroup(cluster.sim(), **client, neighbour).ok());
  }
  EXPECT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  for (int i = 0; i < 3; ++i) {
    const ClientDisplayPort* port = (*client)->FindPort("tv" + std::to_string(i));
    out.packets.push_back(port == nullptr ? -1 : port->packets_received());
    out.bytes.push_back(port == nullptr ? -1 : port->bytes_received().count());
    out.out_of_order.push_back(port == nullptr ? -1 : port->out_of_order());
    out.media_reorders.push_back(port == nullptr ? -1 : order[port->udp_port()].reorders);
  }
  return out;
}

// A VCR op from one member splits it out of the shared group without
// disturbing the other member, and the split viewer ends up with exactly the
// bytes a solo (never-shared) viewer of the same title receives — in either
// delivery fidelity, wherever the split lands.
TEST(SharingTest, VcrSplitDeliversSameBytesAsSoloStream) {
  // Reference run: sharing disabled, one viewer, pause/resume mid-play.
  int64_t solo_bytes = 0;
  int64_t solo_packets = 0;
  {
    InstallationConfig config;
    config.msu_count = 1;
    TestCluster cluster(config);
    ASSERT_TRUE(cluster.Boot().ok());
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
    auto client = cluster.AddConnectedClient("c");
    ASSERT_TRUE(client.ok());
    auto play = PlayOn(cluster.sim(), **client, "m0", "tv");
    ASSERT_TRUE(play.ok());
    cluster.sim().RunFor(SimTime::Seconds(4));
    ASSERT_TRUE(VcrOp(cluster.sim(), **client, play->group, VcrCommand::Op::kPause).ok());
    cluster.sim().RunFor(SimTime::Seconds(2));
    ASSERT_TRUE(VcrOp(cluster.sim(), **client, play->group, VcrCommand::Op::kPlay).ok());
    ASSERT_TRUE(RunUntil(cluster.sim(),
                         [&] { return (*client)->GroupTerminated(play->group); },
                         SimTime::Seconds(30)));
    ClientDisplayPort* p = (*client)->FindPort("tv");
    ASSERT_NE(p, nullptr);
    solo_bytes = p->bytes_received().count();
    solo_packets = p->packets_received();
    ASSERT_GT(solo_bytes, 0);
  }

  // Shared run: two members; one pauses mid-delivery and is split into its
  // own stream (resumed paused at the split offset), then resumes.
  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto stay = PlayOn(cluster.sim(), **client, "m0", "stay");
  auto split = PlayOn(cluster.sim(), **client, "m0", "split");
  ASSERT_TRUE(stay.ok());
  ASSERT_TRUE(split.ok());
  cluster.sim().RunFor(SimTime::Seconds(4));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.formed"), 1);

  ASSERT_TRUE(VcrOp(cluster.sim(), **client, split->group, VcrCommand::Op::kPause).ok());
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.splits"), 1);
  // The staying member keeps receiving while the split one is paused.
  ClientDisplayPort* stay_port = (*client)->FindPort("stay");
  ASSERT_NE(stay_port, nullptr);
  const int64_t stay_mark = stay_port->packets_received();
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_GT(stay_port->packets_received(), stay_mark);

  ASSERT_TRUE(VcrOp(cluster.sim(), **client, split->group, VcrCommand::Op::kPlay).ok());
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(stay->group) &&
                                (*client)->GroupTerminated(split->group);
                       },
                       SimTime::Seconds(30)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));

  ClientDisplayPort* split_port = (*client)->FindPort("split");
  ASSERT_NE(split_port, nullptr);
  // Byte identity: the split member received exactly what a solo viewer
  // doing the same pause/resume receives — nothing lost or duplicated across
  // the detach + re-admission.
  EXPECT_EQ(split_port->bytes_received().count(), solo_bytes);
  EXPECT_EQ(stay_port->bytes_received().count(), solo_bytes);
  EXPECT_EQ(split_port->out_of_order(), 0);
  EXPECT_EQ(stay_port->out_of_order(), 0);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);

  // Flow fidelity, three members: the fan-out sends each chunk to the members
  // one after another, so a split can land while some members have the chunk
  // and others still wait for it. Splits every 3 ms across one page period
  // (a 256 KB page of MPEG-1 plays for ~1.4 s) hit every phase of a page's
  // fan-out, with whole-page chunks and with 8-record chunks; each viewer
  // must still get every record once and in order.
  for (const bool paused_neighbour : {false, true}) {
    for (SimTime at = SimTime::Seconds(3); at < SimTime::Millis(4500);
         at += SimTime::Millis(3)) {
      const ViewerTotals flow = RunFlowSplitAt(at, paused_neighbour);
      ASSERT_EQ(flow.packets.size(), 3u);
      for (size_t i = 0; i < 3; ++i) {
        const std::string where = "viewer " + std::to_string(i) + ", split at " +
                                  std::to_string(at.micros()) + " us" +
                                  (paused_neighbour ? ", 8-record chunks" : "");
        EXPECT_EQ(flow.packets[i], solo_packets) << where;
        EXPECT_EQ(flow.bytes[i], solo_bytes) << where;
        EXPECT_EQ(flow.out_of_order[i], 0) << where;
        EXPECT_EQ(flow.media_reorders[i], 0) << where;
      }
    }
  }
}

// Crash the MSU serving a shared delivery group mid-play (chaos for the
// cache-memory ledger column): members fail over individually as unique
// streams on the replica holder, the delivery stream's disk hold and every
// member's NIC/cache hold are released exactly once, and after a restart +
// another round of shared viewing the ledger still balances.
TEST(SharingTest, SharedGroupFailoverKeepsLedgerInvariants) {
  TestCluster cluster(SharingConfigFor(2));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(15), 0, false).ok());
  ASSERT_TRUE(cluster.installation().ReplicateContent("m0", 1).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Seed-jittered crash point so the ctest seed sweep kills the delivery at
  // different offsets within the title.
  cluster.sim().RunFor(SimTime::Seconds(4) + SimTime::Millis(static_cast<int64_t>(SharingSeed() % 997)));
  ASSERT_EQ(CounterValue(cluster, "coord.groups.formed"), 1);

  // Find and kill the serving MSU.
  const int serving = cluster.msu(0).active_stream_count() > 0 ? 0 : 1;
  const int survivor = 1 - serving;
  cluster.msu(static_cast<size_t>(serving)).Crash();

  // Both members resume as unique streams on the survivor.
  ASSERT_TRUE(RunUntil(
      cluster.sim(),
      [&] { return cluster.msu(static_cast<size_t>(survivor)).active_stream_count() == 2; },
      SimTime::Seconds(15)));
  EXPECT_FALSE((*client)->GroupTerminated(a->group));
  EXPECT_FALSE((*client)->GroupTerminated(b->group));

  // Restart the crashed MSU and run another shared round on it while the
  // failed-over viewers play out.
  CoResult<Status> restarted;
  Collect(cluster.msu(static_cast<size_t>(serving)).Restart("coordinator"), &restarted);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return restarted.done(); }, SimTime::Seconds(20)));
  ASSERT_TRUE(restarted.value->ok());
  auto c = PlayOn(cluster.sim(), **client, "m0", "tv2");
  auto d = PlayOn(cluster.sim(), **client, "m0", "tv3");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         for (GroupId g : {a->group, b->group, c->group, d->group}) {
                           if (!(*client)->GroupTerminated(g)) {
                             return false;
                           }
                         }
                         return true;
                       },
                       SimTime::Seconds(45)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  // The ledger survived crash + failover + restart + a second shared round.
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  for (const char* port : {"tv0", "tv1", "tv2", "tv3"}) {
    ClientDisplayPort* p = (*client)->FindPort(port);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->packets_received(), 0) << port;
    EXPECT_EQ(p->out_of_order(), 0) << port;
  }
}

// Regression (satellite 5): when a shared group's disk stream fails over
// mid-delivery, no member's receive gap exceeds the failover budget (MSU
// death detection + re-placement + restart, all well under 10 s of media
// time at 2 s progress-report staleness).
TEST(SharingTest, SharedGroupFailoverBoundsMaxGap) {
  TestCluster cluster(SharingConfigFor(2));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(15), 0, false).ok());
  ASSERT_TRUE(cluster.installation().ReplicateContent("m0", 1).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  cluster.sim().RunFor(SimTime::Seconds(5) + SimTime::Millis(static_cast<int64_t>(SharingSeed() % 997)));
  const int serving = cluster.msu(0).active_stream_count() > 0 ? 0 : 1;
  cluster.msu(static_cast<size_t>(serving)).Crash();

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(a->group) &&
                                (*client)->GroupTerminated(b->group);
                       },
                       SimTime::Seconds(40)));
  const ClusterReport report = cluster.installation().BuildClusterReport();
  int ports_checked = 0;
  for (const auto& port : report.ports) {
    if (port.port != "tv0" && port.port != "tv1") {
      continue;
    }
    ++ports_checked;
    EXPECT_GT(port.max_gap_us, 0) << port.port;
    // The failover hole: progress staleness (<=2 s) + conn-break detection +
    // re-admission. Anything near 10 s would mean a member restarted from
    // zero or was forgotten until its group timed out.
    EXPECT_LT(port.max_gap_us, 6'000'000) << port.port;
  }
  EXPECT_EQ(ports_checked, 2);
}

// The capacity claim behind the whole subsystem: under a Zipf(1.0) title
// popularity distribution, shared mode concurrently serves at least twice
// the viewers per MSU that the unique-stream baseline admits on the same
// topology (same titles, same arrival schedule, same disk budget).
TEST(SharingTest, ZipfWorkloadSharedModeDoublesAdmittedViewers) {
  constexpr int kViewers = 24;
  constexpr int kTitles = 4;
  const SimTime kMovieLength = SimTime::Seconds(25);

  // Title picks are derived from a fixed seed so both runs see the identical
  // request sequence.
  std::vector<int> picks;
  {
    Rng rng(SharingSeed());
    ZipfDistribution zipf(kTitles, 1.0);
    for (int i = 0; i < kViewers; ++i) {
      picks.push_back(static_cast<int>(zipf.Sample(rng)));
    }
  }

  auto viewers_served = [&](bool sharing) -> int {
    InstallationConfig config;
    config.msu_count = 1;
    config.coordinator.sharing.enabled = sharing;
    if (sharing) {
      config.msu.cache_memory = Bytes::MiB(32);
    }
    // Tight disk budget: 4 unique mpeg1 streams per disk, 8 per MSU.
    config.coordinator.disk_budget = DataRate::MegabitsPerSec(6);
    TestCluster cluster(config);
    EXPECT_TRUE(cluster.Boot().ok());
    for (int t = 0; t < kTitles; ++t) {
      EXPECT_TRUE(cluster.installation()
                      .LoadMpegMovie("m" + std::to_string(t), kMovieLength, 0, false)
                      .ok());
    }
    auto client = cluster.AddConnectedClient("c");
    EXPECT_TRUE(client.ok());
    if (!client.ok()) {
      return 0;
    }
    std::vector<std::string> ports;
    for (int i = 0; i < kViewers; ++i) {
      const std::string port = "tv" + std::to_string(i);
      auto play = PlayOn(cluster.sim(), **client, "m" + std::to_string(picks[static_cast<size_t>(i)]),
                         port);
      EXPECT_TRUE(play.ok());
      ports.push_back(port);
    }
    // Past the batch window and into steady-state delivery, but well before
    // any title finishes: whoever has received media by now is being served
    // concurrently.
    cluster.sim().RunFor(SimTime::Seconds(6));
    int served = 0;
    for (const std::string& port : ports) {
      ClientDisplayPort* p = (*client)->FindPort(port);
      if (p != nullptr && p->packets_received() > 0) {
        ++served;
      }
    }
    return served;
  };

  const int baseline = viewers_served(false);
  const int shared = viewers_served(true);
  // The baseline saturates the disk budget; sharing coalesces the Zipf head
  // onto a handful of delivery streams and serves everyone.
  EXPECT_LE(baseline, 8);
  EXPECT_GT(baseline, 0);
  EXPECT_GE(shared, 2 * baseline) << "shared=" << shared << " baseline=" << baseline;
}

}  // namespace
}  // namespace calliope
