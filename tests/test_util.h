// Shared helpers for driving coroutine-based components from gtest bodies,
// the TestCluster fixture used by the system-level suites (integration_test,
// failover_test, chaos_test), and the HA standby-mirrors-primary check
// (ha_test, rebalance_test).
#ifndef CALLIOPE_TESTS_TEST_UTIL_H_
#define CALLIOPE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/sim/co.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace calliope {

// Runs the simulation in small steps until `pred` holds or `timeout` of
// simulated time passes. Returns the final predicate value.
inline bool RunUntil(Simulator& sim, const std::function<bool()>& pred, SimTime timeout,
                     SimTime step = SimTime::Millis(10)) {
  const SimTime deadline = sim.Now() + timeout;
  while (!pred() && sim.Now() < deadline) {
    sim.RunFor(step);
  }
  return pred();
}

// Spawns a Co<T> and captures its result when it completes.
template <typename T>
struct CoResult {
  std::optional<T> value;
  bool done() const { return value.has_value(); }
};

template <typename T>
Task Collect(Co<T> co, CoResult<T>* out) {
  out->value.emplace(co_await std::move(co));
}

inline Task Detach(Co<void> co) { co_await std::move(co); }

// ---- client-driving helpers -------------------------------------------------
// Each helper spawns the client coroutine and pumps the simulation until it
// completes (or a generous simulated-time budget runs out).

inline Status ConnectClient(Simulator& sim, CalliopeClient& client,
                            const std::string& customer = "bob",
                            const std::string& credential = "bob-key") {
  CoResult<Status> connected;
  Collect(client.Connect(customer, credential), &connected);
  if (!RunUntil(sim, [&] { return connected.done(); }, SimTime::Seconds(5))) {
    return DeadlineExceededError("connect timed out");
  }
  return *connected.value;
}

inline Result<ClientDisplayPort*> RegisterClientPort(Simulator& sim, CalliopeClient& client,
                                                     const std::string& name,
                                                     const std::string& type_name) {
  CoResult<Result<ClientDisplayPort*>> registered;
  Collect(client.RegisterPort(name, type_name), &registered);
  if (!RunUntil(sim, [&] { return registered.done(); }, SimTime::Seconds(5))) {
    return DeadlineExceededError("port registration timed out");
  }
  return *registered.value;
}

// Registers `port` (if the client does not already have it) and plays
// `content` on it.
inline Result<CalliopeClient::StartResult> PlayOn(Simulator& sim, CalliopeClient& client,
                                                  const std::string& content,
                                                  const std::string& port,
                                                  const std::string& port_type = "mpeg1") {
  if (client.FindPort(port) == nullptr) {
    auto registered = RegisterClientPort(sim, client, port, port_type);
    if (!registered.ok()) {
      return registered.status();
    }
  }
  CoResult<Result<CalliopeClient::StartResult>> play;
  Collect(client.Play(content, port), &play);
  if (!RunUntil(sim, [&] { return play.done(); }, SimTime::Seconds(5))) {
    return DeadlineExceededError("play timed out");
  }
  return *play.value;
}

// Registers `port` (if absent) and starts recording `content` through it.
inline Result<CalliopeClient::StartResult> RecordOn(Simulator& sim, CalliopeClient& client,
                                                    const std::string& content,
                                                    const std::string& type_name,
                                                    const std::string& port,
                                                    SimTime estimated_length) {
  if (client.FindPort(port) == nullptr) {
    auto registered = RegisterClientPort(sim, client, port, type_name);
    if (!registered.ok()) {
      return registered.status();
    }
  }
  CoResult<Result<CalliopeClient::StartResult>> record;
  Collect(client.Record(content, type_name, port, estimated_length), &record);
  if (!RunUntil(sim, [&] { return record.done(); }, SimTime::Seconds(5))) {
    return DeadlineExceededError("record timed out");
  }
  return *record.value;
}

inline Status VcrOp(Simulator& sim, CalliopeClient& client, GroupId group, VcrCommand::Op op,
                    SimTime seek_to = SimTime()) {
  CoResult<Status> done;
  Collect(client.Vcr(group, op, seek_to), &done);
  if (!RunUntil(sim, [&] { return done.done(); }, SimTime::Seconds(10))) {
    return DeadlineExceededError("vcr command timed out");
  }
  return *done.value;
}

inline Status QuitGroup(Simulator& sim, CalliopeClient& client, GroupId group) {
  return VcrOp(sim, client, group, VcrCommand::Op::kQuit);
}

inline bool WaitForTermination(Simulator& sim, CalliopeClient& client, GroupId group,
                               SimTime timeout) {
  return RunUntil(sim, [&] { return client.GroupTerminated(group); }, timeout);
}

// ---- cluster fixture --------------------------------------------------------

// Owns an Installation and provides the bringup sequence the system tests
// all share: construct, Boot, attach connected clients. Accessors mirror
// Installation's so call sites read the same either way.
class TestCluster {
 public:
  TestCluster() : calliope_(InstallationConfig()) {}
  explicit TestCluster(InstallationConfig config) : calliope_(std::move(config)) {}

  Installation& installation() { return calliope_; }
  Simulator& sim() { return calliope_.sim(); }
  Network& network() { return calliope_.network(); }
  Coordinator& coordinator() { return calliope_.coordinator(); }
  Msu& msu(size_t i) { return calliope_.msu(i); }
  size_t msu_count() const { return calliope_.msu_count(); }

  Status Boot(SimTime timeout = SimTime::Seconds(30)) { return calliope_.Boot(timeout); }

  // Adds a client host and opens a session on it.
  Result<CalliopeClient*> AddConnectedClient(const std::string& node_name,
                                             const std::string& customer = "bob",
                                             const std::string& credential = "bob-key") {
    CalliopeClient& client = calliope_.AddClient(node_name);
    const Status connected = ConnectClient(sim(), client, customer, credential);
    if (!connected.ok()) {
      return connected;
    }
    return &client;
  }

  // True once the Coordinator tracks no active streams and no queued
  // requests — the cluster is quiescent.
  bool Idle() {
    return coordinator().active_stream_count() == 0 &&
           coordinator().pending_request_count() == 0;
  }
  bool WaitForIdle(SimTime timeout) {
    return RunUntil(sim(), [this] { return Idle(); }, timeout);
  }

 private:
  Installation calliope_;
};

// The standby's ledger balances equal the primary's: every account's free
// space, NIC load, cache usage and per-disk load and hold count, and every
// hold. A hold is compared by whether it still charges its account, not by
// its raw epoch: a standby that joined by snapshot registered each MSU once.
inline void ExpectLedgersMatch(const ResourceLedger& primary, const ResourceLedger& standby) {
  EXPECT_EQ(primary.msus().size(), standby.msus().size());
  for (const auto& [name, mine] : primary.msus()) {
    const MsuAccount* shadow = standby.Find(name);
    if (shadow == nullptr) {
      ADD_FAILURE() << "the standby has no account for " << name;
      continue;
    }
    EXPECT_EQ(shadow->up, mine.up) << name;
    EXPECT_EQ(shadow->free_space, mine.free_space) << name;
    EXPECT_EQ(shadow->nic_load, mine.nic_load) << name;
    EXPECT_EQ(shadow->cache_used, mine.cache_used) << name;
    EXPECT_EQ(shadow->disks.size(), mine.disks.size()) << name;
    for (size_t d = 0; d < std::min(mine.disks.size(), shadow->disks.size()); ++d) {
      EXPECT_EQ(shadow->disks[d].load, mine.disks[d].load) << name << " disk " << d;
      EXPECT_EQ(shadow->disks[d].streams, mine.disks[d].streams) << name << " disk " << d;
    }
  }
  struct Held {
    std::string msu;
    int disk = 0;
    DataRate rate;
    Bytes space;
    Bytes cache;
    bool current = false;
    bool operator==(const Held&) const = default;
  };
  const auto holds = [](const ResourceLedger& ledger) {
    std::map<ResourceLedger::HoldId, Held> out;
    ledger.ForEachHold([&](ResourceLedger::HoldId id, const ResourceLedger::Hold& hold) {
      out[id] = Held{hold.msu, hold.item.disk, hold.item.rate, hold.item.space, hold.item.cache,
                     ledger.IsCurrent(hold)};
    });
    return out;
  };
  const std::map<ResourceLedger::HoldId, Held> mine = holds(primary);
  const std::map<ResourceLedger::HoldId, Held> shadow = holds(standby);
  EXPECT_EQ(mine.size(), shadow.size());
  for (const auto& [id, held] : mine) {
    auto it = shadow.find(id);
    if (it == shadow.end()) {
      ADD_FAILURE() << "hold " << id << " on " << held.msu << " is missing on the standby";
    } else if (!(it->second == held)) {
      ADD_FAILURE() << "hold " << id << " on " << held.msu << " differs on the standby";
    }
  }
}

// At a quiet point — one live primary whose joined standby has acknowledged
// every record, with no retry pass in flight — the standby's replicated
// state equals the primary's: its Snapshot() and its ledger balances.
// Returns false (checking nothing) elsewhere.
inline bool ExpectStandbyMirrorsPrimary(Installation& installation) {
  Coordinator& primary = installation.current_primary();
  Coordinator& other = &primary == &installation.coordinator()
                           ? *installation.standby_coordinator()
                           : installation.coordinator();
  if (primary.crashed() || !primary.is_primary() || other.crashed() || other.is_primary() ||
      !other.ha_joined() || !primary.standby_in_sync() || primary.inflight_retry_count() != 0) {
    return false;
  }
  EXPECT_EQ(other.inflight_retry_count(), 0u) << "the standby parks a request nobody retries";
  ExpectLedgersMatch(primary.ledger(), other.ledger());
  const std::vector<ReplRecord> mine = primary.Snapshot();
  const std::vector<ReplRecord> shadow = other.Snapshot();
  EXPECT_EQ(mine.size(), shadow.size());
  for (size_t i = 0; i < std::min(mine.size(), shadow.size()); ++i) {
    if (!(mine[i] == shadow[i])) {
      ADD_FAILURE() << "snapshot record " << i << " differs: alternative " << mine[i].index()
                    << " on the primary, " << shadow[i].index() << " on the standby";
      break;
    }
  }
  return true;
}

}  // namespace calliope

#endif  // CALLIOPE_TESTS_TEST_UTIL_H_
