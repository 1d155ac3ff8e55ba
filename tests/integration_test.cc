// End-to-end tests of a whole Calliope installation: Coordinator + MSUs +
// clients over the simulated networks.
#include <gtest/gtest.h>

#include "src/calliope/calliope.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

TEST(IntegrationTest, BootRegistersAllMsus) {
  InstallationConfig config;
  config.msu_count = 3;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  EXPECT_TRUE(cluster.coordinator().MsuUp("msu0"));
  EXPECT_TRUE(cluster.coordinator().MsuUp("msu1"));
  EXPECT_TRUE(cluster.coordinator().MsuUp("msu2"));
}

TEST(IntegrationTest, PlaySingleMpegStreamEndToEnd) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok()) << play.status().ToString();
  EXPECT_FALSE(play->queued);

  // 10 seconds of playback: ~458 packets at 1.5 Mbit/s in 4 KB packets.
  cluster.sim().RunFor(SimTime::Seconds(10));
  ClientDisplayPort* tv = (*client)->FindPort("tv");
  ASSERT_NE(tv, nullptr);
  EXPECT_GT(tv->packets_received(), 400);
  EXPECT_LT(tv->packets_received(), 520);
  EXPECT_EQ(tv->glitches(), 0);

  // Quit tears the stream down and the Coordinator hears about it.
  const Status quit = QuitGroup(cluster.sim(), **client, play->group);
  EXPECT_TRUE(quit.ok()) << quit.ToString();
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().active_stream_count() == 0; },
                       SimTime::Seconds(5)));
  EXPECT_EQ(cluster.coordinator().DiskLoad("msu0", 0), DataRate());
}

TEST(IntegrationTest, PlaybackRunsToEndOfContentAndTerminates) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("short", SimTime::Seconds(5), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "short", "tv");
  ASSERT_TRUE(play.ok());

  // Let the whole 5-second movie play out; the MSU ends the stream itself.
  EXPECT_TRUE(WaitForTermination(cluster.sim(), **client, play->group, SimTime::Seconds(30)));
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 0u);
}

TEST(IntegrationTest, PauseStopsDeliveryAndResumeContinues) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(120), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());
  const GroupId group = play->group;

  cluster.sim().RunFor(SimTime::Seconds(5));
  const Status paused = VcrOp(cluster.sim(), **client, group, VcrCommand::Op::kPause);
  ASSERT_TRUE(paused.ok()) << paused.ToString();

  ClientDisplayPort* tv = (*client)->FindPort("tv");
  cluster.sim().RunFor(SimTime::Seconds(1));  // drain in-flight packets
  const int64_t at_pause = tv->packets_received();
  cluster.sim().RunFor(SimTime::Seconds(5));
  EXPECT_EQ(tv->packets_received(), at_pause);  // paused: nothing arrives

  const Status resumed = VcrOp(cluster.sim(), **client, group, VcrCommand::Op::kPlay);
  ASSERT_TRUE(resumed.ok());
  cluster.sim().RunFor(SimTime::Seconds(5));
  EXPECT_GT(tv->packets_received(), at_pause + 180);
}

TEST(IntegrationTest, SeekJumpsPosition) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(300), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());
  const GroupId group = play->group;

  cluster.sim().RunFor(SimTime::Seconds(3));
  // Seek near the end; playback should finish within ~15 s + slack, which it
  // never could from the 3-second mark without the seek.
  const Status sought =
      VcrOp(cluster.sim(), **client, group, VcrCommand::Op::kSeek, SimTime::Seconds(285));
  ASSERT_TRUE(sought.ok()) << sought.ToString();
  EXPECT_TRUE(WaitForTermination(cluster.sim(), **client, group, SimTime::Seconds(30)));
}

TEST(IntegrationTest, FastForwardUsesFilteredFile) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation()
                  .LoadMpegMovie("movie", SimTime::Seconds(300), 0, /*with_fast_scan=*/true)
                  .ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());
  const GroupId group = play->group;

  cluster.sim().RunFor(SimTime::Seconds(3));
  const Status ff = VcrOp(cluster.sim(), **client, group, VcrCommand::Op::kFastForward);
  ASSERT_TRUE(ff.ok()) << ff.ToString();

  // The fast-forward file covers the movie in 1/15 of the time; from the
  // 3-second mark the whole rest plays out in under ~25 seconds.
  EXPECT_TRUE(WaitForTermination(cluster.sim(), **client, group, SimTime::Seconds(40)));
}

TEST(IntegrationTest, FastForwardWithoutVariantFailsCleanly) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation()
                  .LoadMpegMovie("movie", SimTime::Seconds(60), 0, /*with_fast_scan=*/false)
                  .ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());

  const Status ff = VcrOp(cluster.sim(), **client, play->group, VcrCommand::Op::kFastForward);
  EXPECT_FALSE(ff.ok());
}

TEST(IntegrationTest, RecordThenPlayBack) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto record =
      RecordOn(cluster.sim(), **client, "mymail", "rtp-video", "cam", SimTime::Seconds(30));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  const GroupId record_group = record->group;

  // Feed 10 seconds of NV-like video into the recording.
  VbrSourceConfig source = Graph2File(0);
  const PacketSequence packets = GenerateVbr(source, SimTime::Seconds(10));
  CoResult<Result<int64_t>> sent;
  Collect((*client)->SendRecording(record_group, 0, packets), &sent);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return sent.done(); }, SimTime::Seconds(30)));
  ASSERT_TRUE(sent.value->ok()) << sent.value->status().ToString();
  EXPECT_EQ(static_cast<size_t>(**sent.value), packets.size());

  const Status quit = QuitGroup(cluster.sim(), **client, record_group);
  ASSERT_TRUE(quit.ok()) << quit.ToString();

  // The recording is now playable content with a duration near 10 s.
  CoResult<Result<std::vector<ContentInfo>>> listing;
  Collect((*client)->ListContent(), &listing);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return listing.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(listing.value->ok());
  bool found = false;
  for (const ContentInfo& info : **listing.value) {
    if (info.name == "mymail") {
      found = true;
      EXPECT_NEAR(info.duration.seconds(), 10.0, 1.5);
    }
  }
  ASSERT_TRUE(found);

  auto playback = PlayOn(cluster.sim(), **client, "mymail", "cam");
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();
  cluster.sim().RunFor(SimTime::Seconds(5));
  EXPECT_GT((*client)->FindPort("cam")->packets_received(), 100);
}

TEST(IntegrationTest, CompositeSeminarRecordAndPlay) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "v", "rtp-video").ok());
  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "a", "vat-audio").ok());
  CoResult<Result<ClientDisplayPort*>> seminar;
  Collect((*client)->RegisterCompositePort("sem", "seminar", {"v", "a"}), &seminar);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return seminar.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(seminar.value->ok()) << seminar.value->status().ToString();

  auto record = RecordOn(cluster.sim(), **client, "talk", "seminar", "sem", SimTime::Seconds(30));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  const GroupId group = record->group;

  // Feed both component streams.
  const PacketSequence video_packets = GenerateVbr(Graph2File(0), SimTime::Seconds(8));
  VbrSourceConfig audio_config;
  audio_config.target_average = DataRate::KilobitsPerSec(64);
  audio_config.seed = 99;
  const PacketSequence audio_packets = GenerateVbr(audio_config, SimTime::Seconds(8));
  CoResult<Result<int64_t>> video_sent;
  CoResult<Result<int64_t>> audio_sent;
  Collect((*client)->SendRecording(group, 0, video_packets), &video_sent);
  Collect((*client)->SendRecording(group, 1, audio_packets), &audio_sent);
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return video_sent.done() && audio_sent.done(); },
                       SimTime::Seconds(30)));
  ASSERT_TRUE(video_sent.value->ok());
  ASSERT_TRUE(audio_sent.value->ok());

  const Status quit = QuitGroup(cluster.sim(), **client, group);
  ASSERT_TRUE(quit.ok()) << quit.ToString();

  // Play the composite back: both ports receive their component streams.
  auto playback = PlayOn(cluster.sim(), **client, "talk", "sem");
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();
  cluster.sim().RunFor(SimTime::Seconds(6));
  EXPECT_GT((*client)->FindPort("v")->packets_received(), 50);
  EXPECT_GT((*client)->FindPort("a")->packets_received(), 50);
}

// A composite group starts on its MSU whole or not at all. One buffer short
// of the seminar's two streams (two buffers each), the MSU can admit the
// video member but not the audio one: the Play fails or queues, no member is
// left streaming, the ledger keeps no hold, and the buffers are free for the
// next one-stream Play.
TEST(IntegrationTest, CompositeRefusedByMsuLeavesNoMemberRunning) {
  InstallationConfig config;
  config.msu.buffer_count = 3;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  const PacketSequence video = GenerateVbr(Graph2File(0), SimTime::Seconds(20));
  VbrSourceConfig audio_config;
  audio_config.target_average = DataRate::KilobitsPerSec(64);
  audio_config.seed = 99;
  const PacketSequence audio = GenerateVbr(audio_config, SimTime::Seconds(20));
  ASSERT_TRUE(cluster.installation().LoadPackets("talk.0", "rtp-video", video, 0).ok());
  ASSERT_TRUE(cluster.installation().LoadPackets("talk.1", "vat-audio", audio, 0).ok());
  ContentRecord talk;
  talk.name = "talk";
  talk.type_name = "seminar";
  talk.component_items = {"talk.0", "talk.1"};
  talk.duration = SimTime::Seconds(20);
  ASSERT_TRUE(cluster.coordinator().catalog().AddContent(std::move(talk)).ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(20), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "v", "rtp-video").ok());
  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "a", "vat-audio").ok());
  CoResult<Result<ClientDisplayPort*>> seminar;
  Collect((*client)->RegisterCompositePort("sem", "seminar", {"v", "a"}), &seminar);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return seminar.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(seminar.value->ok()) << seminar.value->status().ToString();

  auto play = PlayOn(cluster.sim(), **client, "talk", "sem");
  EXPECT_TRUE(!play.ok() || play->queued);
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_EQ(cluster.msu(0).active_stream_count(), 0);
  EXPECT_EQ((*client)->FindPort("v")->packets_received(), 0);
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());

  auto movie = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(movie.ok()) << movie.status().ToString();
  EXPECT_FALSE(movie->queued);
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_GT((*client)->FindPort("tv")->packets_received(), 0);
}

TEST(IntegrationTest, MsuFailureDetectedAndRecovered) {
  InstallationConfig config;
  config.msu_count = 2;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());
  cluster.sim().RunFor(SimTime::Seconds(2));
  ASSERT_EQ(cluster.coordinator().active_stream_count(), 1u);

  // Crash msu0: "The Coordinator detects when one of the MSUs fails by a
  // break in the TCP connection."
  cluster.msu(0).Crash();
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return !cluster.coordinator().MsuUp("msu0"); },
                       SimTime::Seconds(5)));
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 0u);
  EXPECT_TRUE(cluster.coordinator().MsuUp("msu1"));

  // Restart: the MSU re-contacts the Coordinator and is restored.
  CoResult<Status> restarted;
  Collect(cluster.msu(0).Restart("coordinator"), &restarted);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return restarted.done(); }, SimTime::Seconds(10)));
  ASSERT_TRUE(restarted.value->ok()) << restarted.value->ToString();
  EXPECT_TRUE(cluster.coordinator().MsuUp("msu0"));

  // Content survived the crash: play it again.
  auto replay = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  cluster.sim().RunFor(SimTime::Seconds(3));
  EXPECT_GT((*client)->FindPort("tv")->packets_received(), 80);
}

TEST(IntegrationTest, RequestsQueueWhenBandwidthExhaustedAndStartLater) {
  // Shrink the admission budget so one disk holds only 2 concurrent streams.
  InstallationConfig config;
  config.coordinator.disk_budget = DataRate::MegabitsPerSec(3.2);
  config.msu_machine.disks_per_hba = {1};
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(30), 0, false).ok());

  auto client = cluster.AddConnectedClient("client0");
  ASSERT_TRUE(client.ok());

  int queued = 0;
  for (int i = 0; i < 3; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "movie", "tv" + std::to_string(i));
    ASSERT_TRUE(play.ok());
    if (play->queued) {
      ++queued;
    }
  }
  EXPECT_EQ(queued, 1);
  EXPECT_EQ(cluster.coordinator().pending_request_count(), 1u);

  // When the 30-second movies end, the queued request gets its resources.
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().pending_request_count() == 0; },
                       SimTime::Seconds(60)));
  cluster.sim().RunFor(SimTime::Seconds(5));
  EXPECT_GT((*client)->FindPort("tv2")->packets_received(), 0);
}

TEST(IntegrationTest, AdminCanDeleteContentAndNonAdminCannot) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(10), 0, false).ok());

  auto bob = cluster.AddConnectedClient("bobhost");
  ASSERT_TRUE(bob.ok());
  CoResult<Status> bob_delete;
  Collect((*bob)->DeleteContent("movie"), &bob_delete);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return bob_delete.done(); }, SimTime::Seconds(5)));
  EXPECT_FALSE(bob_delete.value->ok());

  auto alice = cluster.AddConnectedClient("alicehost", "alice", "alice-key");
  ASSERT_TRUE(alice.ok());
  CoResult<Status> alice_delete;
  Collect((*alice)->DeleteContent("movie"), &alice_delete);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return alice_delete.done(); }, SimTime::Seconds(5)));
  EXPECT_TRUE(alice_delete.value->ok()) << alice_delete.value->ToString();

  // Gone from the catalog and from the MSU file system.
  EXPECT_FALSE(cluster.coordinator().catalog().FindContent("movie").ok());
  EXPECT_FALSE(cluster.msu(0).fs().Lookup("movie.mpg").ok());
}

TEST(IntegrationTest, CorruptPageTerminatesStreamCleanly) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(120), 0, false).ok());
  // Scribble over a page ~8 seconds in.
  auto file = cluster.msu(0).fs().Lookup("movie.mpg");
  ASSERT_TRUE(file.ok());
  cluster.msu(0).fs().CorruptPageForTesting(*file, 6);

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());
  const GroupId group = play->group;

  // The stream dies at the bad page instead of stalling the viewer forever;
  // the group terminates and the Coordinator releases the slot.
  ASSERT_TRUE(WaitForTermination(cluster.sim(), **client, group, SimTime::Seconds(30)));
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 0u);
  // Roughly the first six pages' worth of packets arrived (~63 per page).
  const int64_t received = (*client)->FindPort("tv")->packets_received();
  EXPECT_GT(received, 5 * 60);
  EXPECT_LT(received, 8 * 66);
}

TEST(IntegrationTest, RecordWhilePlayingSharesTheDisks) {
  // The disk processes interleave playback reads and recording writes in the
  // same round-robin duty cycle.
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());

  // Three viewers...
  for (int i = 0; i < 3; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "movie", "tv" + std::to_string(i));
    ASSERT_TRUE(play.ok());
  }
  // ...and one camera recording at the same time.
  auto record =
      RecordOn(cluster.sim(), **client, "live", "rtp-video", "cam", SimTime::Seconds(60));
  ASSERT_TRUE(record.ok());
  const PacketSequence packets = GenerateVbr(Graph2File(0), SimTime::Seconds(12));
  CoResult<Result<int64_t>> sent;
  Collect((*client)->SendRecording(record->group, 0, packets), &sent);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return sent.done(); }, SimTime::Seconds(30)));

  const Status quit = QuitGroup(cluster.sim(), **client, record->group);
  ASSERT_TRUE(quit.ok());

  // Everyone made progress: viewers received on schedule, recording sealed.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT((*client)->FindPort("tv" + std::to_string(i))->packets_received(), 300) << i;
  }
  EXPECT_TRUE(cluster.msu(0).fs().Lookup("live.dat").ok());
  EXPECT_GT(cluster.msu(0).fs().metadata_flushes(), 0);
}

TEST(IntegrationTest, SeekStormStaysConsistent) {
  TestCluster cluster;
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("movie", SimTime::Seconds(600), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto play = PlayOn(cluster.sim(), **client, "movie", "tv");
  ASSERT_TRUE(play.ok());
  const GroupId group = play->group;

  // A dozen rapid-fire seeks all over the file, each acknowledged.
  const int64_t targets[] = {500, 10, 300, 42, 599, 0, 250, 123, 400, 7, 550, 60};
  for (int64_t target : targets) {
    const Status sought =
        VcrOp(cluster.sim(), **client, group, VcrCommand::Op::kSeek, SimTime::Seconds(target));
    EXPECT_TRUE(sought.ok()) << target << ": " << sought.ToString();
    cluster.sim().RunFor(SimTime::Millis(300));
  }
  // Still delivering from the final position.
  const int64_t before = (*client)->FindPort("tv")->packets_received();
  cluster.sim().RunFor(SimTime::Seconds(5));
  EXPECT_GT((*client)->FindPort("tv")->packets_received(), before + 180);
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 1u);
}

TEST(IntegrationTest, LateJoinersQueueAndInheritFreedSlots) {
  // A revolving audience: as early streams end, queued requests take over.
  InstallationConfig config;
  config.coordinator.disk_budget = DataRate::MegabitsPerSec(3.2);  // 2 per disk
  config.msu_machine.disks_per_hba = {1};
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("clip", SimTime::Seconds(15), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());

  for (int i = 0; i < 6; ++i) {
    auto play = PlayOn(cluster.sim(), **client, "clip", "tv" + std::to_string(i));
    ASSERT_TRUE(play.ok());
  }
  EXPECT_GE(cluster.coordinator().pending_request_count(), 3u);

  // Three 15-second generations: everyone eventually gets served.
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().pending_request_count() == 0; },
                       SimTime::Seconds(90)));
  cluster.sim().RunFor(SimTime::Seconds(10));
  for (int i = 0; i < 6; ++i) {
    EXPECT_GT((*client)->FindPort("tv" + std::to_string(i))->packets_received(), 0) << i;
  }
}

}  // namespace
}  // namespace calliope
