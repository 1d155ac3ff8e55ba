// Shared helpers for driving coroutine-based components from gtest bodies,
// the TestCluster fixture used by the system-level suites (integration_test,
// failover_test, chaos_test), and the HA standby-mirrors-primary check
// (ha_test, rebalance_test, obs_test).
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

// True when no launch holds a reservation it has not committed or refunded
// yet: every account's NIC load is what its current holds commit. Such a
// reservation is the primary's alone until its outcome is logged.
inline bool NoReservationInFlight(const ResourceLedger& ledger) {
  std::map<std::string, DataRate> committed;
  ledger.ForEachHold([&](ResourceLedger::HoldId, const ResourceLedger::Hold& hold) {
    if (ledger.IsCurrent(hold)) {
      committed[hold.msu] = committed[hold.msu] + hold.item.rate;
    }
  });
  return std::ranges::all_of(ledger.msus(), [&](const auto& entry) {
    return entry.second.nic_load == committed[entry.first];
  });
}

// At a quiet point — one live primary whose joined standby has acknowledged
// every record, with no launch in flight (no parked retry, no uncommitted
// reservation) — the standby's replicated state equals the primary's,
// container by container (the ledger by its balances and which holds still
// charge, not by raw epochs). Names the first container that differs.
// Returns false (checking nothing) elsewhere.
inline bool ExpectStandbyMirrorsPrimary(Installation& installation) {
  Coordinator& primary = installation.current_primary();
  Coordinator& other = &primary == &installation.coordinator()
                           ? *installation.standby_coordinator()
                           : installation.coordinator();
  if (primary.crashed() || !primary.is_primary() || other.crashed() || other.is_primary() ||
      !other.ha_joined() || !primary.standby_in_sync() || primary.inflight_retry_count() != 0 ||
      !NoReservationInFlight(primary.ledger())) {
    return false;
  }
  const Coordinator::ReplicatedState& mine = primary.replicated_state();
  const Coordinator::ReplicatedState& shadow = other.replicated_state();
  if (!(mine == shadow)) {
    const std::pair<const char*, bool> same[] = {
        {"sessions", mine.sessions == shadow.sessions},
        {"active_streams", mine.active_streams == shadow.active_streams},
        {"groups", mine.groups == shadow.groups},
        {"group_requests", mine.group_requests == shadow.group_requests},
        {"pending", mine.pending == shadow.pending},
        {"repl_in_flight", mine.repl_in_flight == shadow.repl_in_flight},
        {"shared_groups", mine.shared_groups == shadow.shared_groups},
        {"share_batches", mine.share_batches == shadow.share_batches},
        {"repl_ops", mine.repl_ops == shadow.repl_ops},
        {"ledger", mine.ledger == shadow.ledger},
    };
    const auto* differs = std::ranges::find(same, false, &std::pair<const char*, bool>::second);
    ADD_FAILURE() << "the standby's " << (differs != std::end(same) ? differs->first : "state")
                  << " differs from the primary's";
  }
  return true;
}

}  // namespace calliope

#endif  // CALLIOPE_TESTS_TEST_UTIL_H_
