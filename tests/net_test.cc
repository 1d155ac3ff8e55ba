// Tests for the simulated network substrate: routing, UDP, TCP conns, RPC,
// ordering, failure detection.
#include <gtest/gtest.h>

#include "src/net/network.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

struct TwoNodes {
  Simulator sim;
  MetricsRegistry metrics;
  TraceRecorder trace{sim};
  Network network{sim, metrics, trace};
  Machine machine_a;
  Machine machine_b;
  NetNode* a;
  NetNode* b;

  TwoNodes()
      : machine_a(sim, DisklessParams(), "a"), machine_b(sim, DisklessParams(), "b") {
    a = network.AddNode("a", &machine_a, /*on_intra=*/true);
    b = network.AddNode("b", &machine_b, /*on_intra=*/true);
  }

  static MachineParams DisklessParams() {
    MachineParams params = MicronP66();
    params.disks_per_hba.clear();
    return params;
  }
};

TEST(NetworkTest, RoutePrefersIntraForServerPairs) {
  TwoNodes env;
  auto segment = env.network.Route("a", "b");
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(*segment, Segment::kIntra);
}

TEST(NetworkTest, UdpDatagramArrives) {
  TwoNodes env;
  int received = 0;
  ASSERT_TRUE(env.b->BindUdp(9000, [&](const Datagram& d) {
                     ++received;
                     EXPECT_EQ(d.src_node, "a");
                   })
                  .ok());
  Detach([](TwoNodes& e) -> Co<void> {
    co_await e.a->SendUdp("b", 9000, Bytes(1000), nullptr);
  }(env));
  env.sim.RunFor(SimTime::Seconds(1));
  EXPECT_EQ(received, 1);
}

Task EchoServerSetup(TwoNodes& env, int* accepted) {
  (void)env.b->ListenTcp(7000, [accepted](TcpConn* conn) {
    ++*accepted;
    conn->set_request_handler([](const MessageBody& body) -> Co<MessageBody> {
      const auto* req = std::get_if<OpenSessionRequest>(&body);
      SimpleResponse response;
      response.ok = req != nullptr;
      response.error = req != nullptr ? req->customer : "bad";
      co_return MessageBody{std::move(response)};
    });
  });
  co_return;
}

TEST(NetworkTest, TcpCallRoundTrip) {
  TwoNodes env;
  int accepted = 0;
  EchoServerSetup(env, &accepted);

  CoResult<Result<TcpConn*>> conn;
  Collect(env.a->ConnectTcp("b", 7000), &conn);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(conn.value->ok()) << conn.value->status().ToString();
  EXPECT_EQ(accepted, 1);

  CoResult<Result<Envelope>> reply;
  Collect((*conn.value).value()->Call(MessageBody{OpenSessionRequest{"carol", "key"}}), &reply);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return reply.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(reply.value->ok()) << reply.value->status().ToString();
  const auto* response = std::get_if<SimpleResponse>(&(*reply.value)->body);
  ASSERT_NE(response, nullptr);
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->error, "carol");
}

TEST(NetworkTest, ManySequentialCallsComplete) {
  TwoNodes env;
  int accepted = 0;
  EchoServerSetup(env, &accepted);
  CoResult<Result<TcpConn*>> conn;
  Collect(env.a->ConnectTcp("b", 7000), &conn);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(conn.value->ok());

  int completed = 0;
  Detach([](TcpConn* c, Simulator& sim, int* done) -> Co<void> {
    for (int i = 0; i < 50; ++i) {
      auto reply = co_await c->Call(MessageBody{OpenSessionRequest{"u" + std::to_string(i), ""}});
      if (reply.ok()) {
        ++*done;
      }
    }
  }((*conn.value).value(), env.sim, &completed));
  ASSERT_TRUE(RunUntil(env.sim, [&] { return completed == 50; }, SimTime::Seconds(30)));
}

TEST(NetworkTest, ConnectToMissingListenerRefused) {
  TwoNodes env;
  CoResult<Result<TcpConn*>> conn;
  Collect(env.a->ConnectTcp("b", 12345), &conn);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
  EXPECT_FALSE(conn.value->ok());
  EXPECT_EQ(conn.value->status().code(), StatusCode::kUnavailable);
}

TEST(NetworkTest, CloseNotifiesPeer) {
  TwoNodes env;
  TcpConn* server_side = nullptr;
  bool server_closed = false;
  (void)env.b->ListenTcp(7000, [&](TcpConn* conn) {
    server_side = conn;
    conn->set_close_handler([&](TcpConn*) { server_closed = true; });
  });
  CoResult<Result<TcpConn*>> conn;
  Collect(env.a->ConnectTcp("b", 7000), &conn);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(conn.value->ok());
  (*conn.value).value()->Close();
  ASSERT_TRUE(RunUntil(env.sim, [&] { return server_closed; }, SimTime::Seconds(2)));
  EXPECT_TRUE(server_side->closed());
}

TEST(NetworkTest, NodeCrashBreaksConnectionsAndFailsPendingCalls) {
  TwoNodes env;
  (void)env.b->ListenTcp(7000, [&](TcpConn* conn) {
    // Server never answers: requests hang until the crash.
    conn->set_receive_handler([](TcpConn*, const Envelope&) {});
  });
  CoResult<Result<TcpConn*>> conn;
  Collect(env.a->ConnectTcp("b", 7000), &conn);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(conn.value->ok());
  bool client_saw_close = false;
  (*conn.value).value()->set_close_handler([&](TcpConn*) { client_saw_close = true; });

  CoResult<Result<Envelope>> reply;
  Collect((*conn.value).value()->Call(MessageBody{ListContentRequest{}}), &reply);
  env.sim.RunFor(SimTime::Millis(50));
  EXPECT_FALSE(reply.done());

  env.b->SetDown(true);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return reply.done(); }, SimTime::Seconds(2)));
  EXPECT_FALSE(reply.value->ok());
  EXPECT_EQ(reply.value->status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(client_saw_close);
}

TEST(NetworkTest, CallTimesOut) {
  TwoNodes env;
  (void)env.b->ListenTcp(7000, [&](TcpConn* conn) {
    conn->set_receive_handler([](TcpConn*, const Envelope&) {});  // never respond
  });
  CoResult<Result<TcpConn*>> conn;
  Collect(env.a->ConnectTcp("b", 7000), &conn);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
  CoResult<Result<Envelope>> reply;
  Collect((*conn.value).value()->Call(MessageBody{ListContentRequest{}}, SimTime::Seconds(1)), &reply);
  ASSERT_TRUE(RunUntil(env.sim, [&] { return reply.done(); }, SimTime::Seconds(5)));
  EXPECT_EQ(reply.value->status().code(), StatusCode::kDeadlineExceeded);
}

// Sets *destroyed when the frame holding it is reclaimed.
class DestroyedFlag {
 public:
  explicit DestroyedFlag(bool* destroyed) : destroyed_(destroyed) {}
  DestroyedFlag(const DestroyedFlag&) = delete;
  DestroyedFlag& operator=(const DestroyedFlag&) = delete;
  ~DestroyedFlag() { *destroyed_ = true; }

 private:
  bool* destroyed_;
};

TEST(NetworkTest, TeardownReclaimsCallStillAwaitingResponse) {
  // A parked Call's frame holds its PendingCall, whose Condition holds the
  // frame. Tearing the network down must still destroy the frame and its
  // caller, or the pair leaks (LeakSanitizer flagged exactly this).
  bool caller_destroyed = false;
  bool caller_finished = false;
  {
    TwoNodes env;
    (void)env.b->ListenTcp(7000, [](TcpConn* conn) {
      conn->set_receive_handler([](TcpConn*, const Envelope&) {});  // never respond
    });
    CoResult<Result<TcpConn*>> conn;
    Collect(env.a->ConnectTcp("b", 7000), &conn);
    ASSERT_TRUE(RunUntil(env.sim, [&] { return conn.done(); }, SimTime::Seconds(2)));
    ASSERT_TRUE(conn.value->ok());
    Detach([](TcpConn* c, bool* destroyed, bool* finished) -> Co<void> {
      DestroyedFlag flag(destroyed);
      (void)co_await c->Call(MessageBody{ListContentRequest{}}, SimTime::Seconds(60));
      *finished = true;
    }((*conn.value).value(), &caller_destroyed, &caller_finished));
    env.sim.RunFor(SimTime::Seconds(1));
    ASSERT_FALSE(caller_destroyed);  // parked on the response
  }
  EXPECT_TRUE(caller_destroyed);
  EXPECT_FALSE(caller_finished);
}

TEST(NetworkTest, SegmentTrafficAccounting) {
  TwoNodes env;
  (void)env.b->BindUdp(9000, [](const Datagram&) {});
  Detach([](TwoNodes& e) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      co_await e.a->SendUdp("b", 9000, Bytes(1000), nullptr);
    }
  }(env));
  env.sim.RunFor(SimTime::Seconds(1));
  EXPECT_GE(env.network.segment_bytes(Segment::kIntra).count(), 10 * 1000);
  EXPECT_EQ(env.network.segment_bytes(Segment::kDelivery).count(), 0);
}

}  // namespace
}  // namespace calliope
