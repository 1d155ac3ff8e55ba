// Reproduces the §3.3 scalability measurement.
//
// Paper setup: "we have created a fake MSU which, when scheduled, delays for
// 50 ms and then reports that the user has terminated the stream. We start
// two of these MSUs on different machines and started two clients who
// together sent 10,000 requests to the coordinator at a rate of about 60
// requests per second. We measured the Coordinator's CPU utilization at 14%
// and the network utilization at 6%."
//
// "Even if sessions are as short as one minute, a large scale implementation
// of Calliope serving 3000 simultaneous streams (150 MSUs at 20 streams
// each) would need to service only 50 requests per second."
// Run with --policy=<least-loaded|first-fit|power-of-two|replica-aware> to
// measure the Coordinator's per-request cost under a different placement
// policy (the scheduling decision is part of the measured CPU work).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace calliope {
namespace {

// A fake MSU: accepts any stream instantly and reports termination 50 ms
// later. It registers with the Coordinator exactly like a real MSU.
class FakeMsu {
 public:
  FakeMsu(Simulator& sim, NetNode& node) : sim_(&sim), node_(&node) {}

  Co<Status> Register(std::string coordinator_node, int coordinator_port) {
    auto conn = co_await node_->ConnectTcp(std::move(coordinator_node), coordinator_port);
    if (!conn.ok()) {
      co_return conn.status();
    }
    conn_ = *conn;
    conn_->set_request_handler([this](const MessageBody& body) -> Co<MessageBody> {
      if (const auto* start = std::get_if<MsuStartGroup>(&body)) {
        for (const MsuStreamSpec& stream : start->streams) {
          TerminateLater(stream.stream, start->group, stream.file, stream.disk_hint);
        }
        co_return MessageBody{MsuStartGroupResponse{true, ""}};
      }
      co_return MessageBody{SimpleResponse{true, ""}};
    });
    MsuRegisterRequest reg;
    reg.msu_node = node_->name();
    reg.disk_count = 3;
    reg.free_space = Bytes::GiB(6);
    auto ack = co_await conn_->Call(MessageBody{std::move(reg)});
    co_return ack.status();
  }

 private:
  Task TerminateLater(StreamId stream, GroupId group, std::string file, int disk) {
    co_await sim_->Delay(SimTime::Millis(50));
    StreamTerminated note;
    note.stream = stream;
    note.group = group;
    note.file = std::move(file);
    note.disk = disk < 0 ? 0 : disk;
    co_await conn_->Send(Envelope{0, false, MessageBody{std::move(note)}});
  }

  Simulator* sim_;
  NetNode* node_;
  TcpConn* conn_ = nullptr;
};

struct ClientState {
  int64_t sent = 0;
  int64_t completed = 0;
};

Task RequestDriver(CalliopeClient& client, std::string port_name, int64_t requests,
                   SimTime interval, int content_count, ClientState* state) {
  Rng rng(std::hash<std::string>{}(port_name));
  for (int64_t i = 0; i < requests; ++i) {
    const SimTime next = client.sim().Now() + interval;
    const std::string content =
        "item" + std::to_string(rng.NextBelow(static_cast<uint64_t>(content_count)));
    ++state->sent;
    auto play = co_await client.Play(content, port_name);
    if (play.ok()) {
      ++state->completed;
    }
    if (client.sim().Now() < next) {
      co_await client.sim().Delay(next - client.sim().Now());
    }
  }
}

}  // namespace
}  // namespace calliope

int main(int argc, char** argv) {
  using namespace calliope;
  std::string policy = "least-loaded";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      policy = argv[i] + 9;
    } else {
      std::fprintf(stderr, "usage: %s [--policy=<name>]\n", argv[0]);
      return 2;
    }
  }
  PrintHeader("Coordinator scalability: fake-MSU request flood",
              "USENIX '96 Calliope paper, section 3.3");
  std::printf("Placement policy: %s\n", policy.c_str());

  const int64_t total_requests = FastBenchMode() ? 2000 : 10000;
  const int kContentCount = 40;

  InstallationConfig config;
  config.msu_count = 0;  // only fake MSUs
  config.coordinator.placement_policy = policy;
  Installation calliope(config);

  // Two fake MSUs on their own machines.
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<FakeMsu>> fakes;
  for (int i = 0; i < 2; ++i) {
    MachineParams params = DisklessHost();
    const std::string name = "fakemsu" + std::to_string(i);
    machines.push_back(std::make_unique<Machine>(calliope.sim(), params, name));
    NetNode* node = calliope.network().AddNode(name, machines.back().get(), /*on_intra=*/true);
    fakes.push_back(std::make_unique<FakeMsu>(calliope.sim(), *node));
    [](FakeMsu* fake, std::string coord, int port) -> Task {
      co_await fake->Register(std::move(coord), port);
    }(fakes.back().get(), "coordinator", config.coordinator.listen_port);
  }
  RunSimUntil(calliope.sim(), [&] { return calliope.coordinator().msu_count() == 2; },
              SimTime::Seconds(5));

  // Catalog entries pointing at the fake MSUs.
  for (int i = 0; i < kContentCount; ++i) {
    ContentRecord record;
    record.name = "item" + std::to_string(i);
    record.type_name = "mpeg1";
    record.file_name = record.name + ".mpg";
    record.duration = SimTime::Seconds(60);
    record.locations.push_back(
        ContentLocation{"fakemsu" + std::to_string(i % 2), i % 3});
    (void)calliope.coordinator().catalog().AddContent(std::move(record));
  }

  // Two clients together sending 60 requests/second. Like the paper's lab
  // setup, the load clients sit on the internal Ethernet, so their request
  // traffic is part of the measured network load.
  std::vector<ClientState> states(2);
  std::vector<std::unique_ptr<CalliopeClient>> clients;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "load" + std::to_string(i);
    machines.push_back(std::make_unique<Machine>(calliope.sim(), DisklessHost(), name));
    NetNode* node = calliope.network().AddNode(name, machines.back().get(), /*on_intra=*/true);
    clients.push_back(std::make_unique<CalliopeClient>(*node, "coordinator",
                                                       config.coordinator.listen_port));
    CalliopeClient& client = *clients.back();
    [](CalliopeClient* c, std::string port, int64_t n, int items, ClientState* state) -> Task {
      if (!(co_await c->Connect("bob", "bob-key")).ok()) {
        co_return;
      }
      if (!(co_await c->RegisterPort(port, "mpeg1")).ok()) {
        co_return;
      }
      RequestDriver(*c, port, n, SimTime::Micros(33333), items, state);
    }(&client, "p" + std::to_string(i), total_requests / 2, kContentCount, &states[i]);
  }
  RunSimUntil(calliope.sim(), [&] { return states[0].sent > 0 && states[1].sent > 0; },
              SimTime::Seconds(10));

  // Measure over the steady-state flood.
  Machine& coordinator_machine = calliope.coordinator_node().machine();
  coordinator_machine.cpu().ResetStats();
  const Bytes intra_before = calliope.network().segment_bytes(Segment::kIntra);
  const SimTime window_start = calliope.sim().Now();
  const int64_t handled_before = calliope.coordinator().requests_handled();

  RunSimUntil(calliope.sim(),
              [&] {
                return states[0].completed + states[1].completed >= total_requests - 2;
              },
              SimTime::Seconds(600));

  const SimTime window = calliope.sim().Now() - window_start;
  const double cpu_util = coordinator_machine.cpu().Utilization();
  const Bytes intra_bytes = calliope.network().segment_bytes(Segment::kIntra) - intra_before;
  const double net_util =
      static_cast<double>(intra_bytes.count()) * 8.0 / (10e6 * window.seconds());
  const double request_rate =
      static_cast<double>(states[0].completed + states[1].completed) / window.seconds();
  const double handled_rate =
      static_cast<double>(calliope.coordinator().requests_handled() - handled_before) /
      window.seconds();

  AsciiTable table({"metric", "measured", "paper"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f req/s", request_rate);
  table.AddRow({"client request rate", buf, "~60 req/s"});
  std::snprintf(buf, sizeof(buf), "%.0f msg/s", handled_rate);
  table.AddRow({"coordinator messages handled", buf, "(requests + terminations)"});
  std::snprintf(buf, sizeof(buf), "%.1f%%", cpu_util * 100.0);
  table.AddRow({"coordinator CPU utilization", buf, "14%"});
  std::snprintf(buf, sizeof(buf), "%.1f%%", net_util * 100.0);
  table.AddRow({"intra-server network utilization", buf, "6%"});
  std::printf("%s\n", table.Render().c_str());

  // The paper's extrapolation.
  std::printf("Extrapolation (paper): 150 MSUs x 20 streams = 3000 simultaneous streams;\n");
  std::printf("with 1-minute sessions that is 50 requests/second — i.e. about\n");
  std::printf("%.0f%% coordinator CPU at the measured per-request cost. The Coordinator\n",
              cpu_util * 100.0 * 50.0 / request_rate);
  std::printf("and intra-server network are nowhere near limiting at hundreds of MSUs.\n");
  return 0;
}
