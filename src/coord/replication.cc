// Warm-standby HA for the Coordinator: oplog shipping, epoch-fenced
// takeover, standby replay. See replication.h for the protocol overview.
#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/coord/coordinator.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace calliope {
namespace {

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

}  // namespace

void Coordinator::StartHa() {
  oplog_cond_ = std::make_unique<Condition>(machine_->sim());
  flush_cond_ = std::make_unique<Condition>(machine_->sim());
  if (params_.ha.start_as_standby) {
    epoch_ = 0;  // learned from the primary's first snapshot
    BecomeStandby();
  } else {
    role_ = HaRole::kPrimary;
    epoch_ = 1;
    ReplicationLoop();
  }
}

void Coordinator::BecomeStandby() {
  role_ = HaRole::kStandby;
  joined_ = false;
  peer_joined_ = false;
  need_snapshot_ = true;
  pending_records_.clear();
  repl_conn_ = nullptr;
  standby_since_ = machine_->sim().Now();
  last_append_ = standby_since_;
  trace_.Instant(trace_track_, metrics_prefix_, "standby", "epoch " + std::to_string(epoch_));
  StandbyWatchdog();
}

Co<bool> Coordinator::SyncReplicate(int64_t target) {
  // Solo mode (peer dead, conn broken ⇒ node death in this simulator) waits
  // on nothing; a live standby must ack before the caller replies.
  while (!crashed_ && role_ == HaRole::kPrimary && peer_joined_ && oplog_acked_ < target) {
    co_await flush_cond_->Wait();
  }
  co_return !crashed_ && role_ == HaRole::kPrimary;
}

Task Coordinator::ReplicationLoop() {
  if (repl_loop_running_ || !params_.ha.enabled) {
    co_return;
  }
  repl_loop_running_ = true;
  BackoffParams backoff_params;
  backoff_params.initial = SimTime::Millis(50);
  backoff_params.max = kHaHeartbeat;
  Backoff backoff(backoff_params, std::hash<std::string>{}(node_->name()) ^ 0x9e3779b9ULL);
  while (!crashed_ && role_ == HaRole::kPrimary) {
    if (repl_conn_ == nullptr) {
      auto conn = co_await node_->ConnectTcp(params_.ha.peer_node, params_.ha.peer_port);
      if (crashed_ || role_ != HaRole::kPrimary) {
        break;
      }
      if (!conn.ok()) {
        const SimTime delay = backoff.Next();
        co_await machine_->sim().Delay(delay);
        continue;
      }
      backoff.Reset();
      repl_conn_ = *conn;
      repl_conn_->set_close_handler([this](TcpConn* closed) {
        if (closed != repl_conn_) {
          return;
        }
        // The standby node died; continue solo and re-snapshot on rejoin.
        repl_conn_ = nullptr;
        peer_joined_ = false;
        need_snapshot_ = true;
        if (flush_cond_ != nullptr) {
          flush_cond_->NotifyAll();
        }
      });
      need_snapshot_ = true;
    }

    ReplAppendRequest req;
    req.epoch = epoch_;
    req.next_session = next_session_;
    req.next_stream = next_stream_;
    req.next_group = next_group_;
    const bool snapshot = need_snapshot_;
    if (snapshot) {
      req.snapshot = true;
      req.first_seq = 0;
      req.records = Snapshot();
      pending_records_.clear();
      // Records logged while the snapshot is in flight are not in it: they
      // queue as the delta that follows it. A failed install asks again.
      need_snapshot_ = false;
    } else {
      req.first_seq = oplog_acked_ + 1;
      req.records = std::move(pending_records_);
      pending_records_.clear();
    }
    const int64_t batch_target = oplog_appended_;
    const size_t batch_size = req.records.size();
    TcpConn* conn = repl_conn_;
    auto response = co_await conn->Call(MessageBody{std::move(req)}, kHaLease);
    if (crashed_ || role_ != HaRole::kPrimary) {
      break;
    }
    if (!response.ok()) {
      if (repl_conn_ == nullptr || conn->broken() || conn->closed()) {
        // Peer node death (the only way a conn breaks here): safe to serve
        // solo. The dropped batch is covered by the rejoin snapshot.
        repl_conn_ = nullptr;
        peer_joined_ = false;
        need_snapshot_ = true;
        flush_cond_->NotifyAll();
        const SimTime delay = backoff.Next();
        co_await machine_->sim().Delay(delay);
        continue;
      }
      // Silent-but-alive link: a partition. The standby may have applied our
      // snapshot without the ack reaching us, so it can promote — fence
      // ourself unconditionally. No split-brain: one primary per epoch.
      CALLIOPE_LOG(kWarning, "coord")
          << node_->name() << ": replication lease lost (partition?); stepping down";
      StepDown();
      break;
    }
    const auto* ack = std::get_if<ReplAppendResponse>(&response->body);
    if (ack == nullptr) {
      need_snapshot_ = true;
      continue;
    }
    if (!ack->ok) {
      if (ack->epoch > epoch_ || ack->error == "stale epoch") {
        CALLIOPE_LOG(kWarning, "coord")
            << node_->name() << ": deposed by epoch " << ack->epoch << "; stepping down";
        StepDown();
        break;
      }
      need_snapshot_ = true;  // "need snapshot": standby restarted unjoined
      continue;
    }
    last_ack_ = machine_->sim().Now();
    if (snapshot) {
      peer_joined_ = true;
      trace_.Instant(trace_track_, metrics_prefix_, "standby-joined",
                     std::to_string(batch_size) + " snapshot records");
    }
    if (batch_target > oplog_acked_) {
      oplog_acked_ = batch_target;
    }
    flush_cond_->NotifyAll();
    ++repl_batches_;
    repl_records_shipped_ += static_cast<int64_t>(batch_size);
    if (pending_records_.empty() && !need_snapshot_) {
      // Idle: sleep until new records or the heartbeat deadline (empty
      // batches renew the standby's lease).
      const SimTime deadline = machine_->sim().Now() + kHaHeartbeat;
      EventToken token = machine_->sim().ScheduleCancelableAt(
          deadline, [this] { oplog_cond_->NotifyAll(); });
      co_await oplog_cond_->Wait();
      token.Cancel();
    }
  }
  repl_loop_running_ = false;
}

Task Coordinator::StandbyWatchdog() {
  if (standby_watchdog_running_ || !params_.ha.enabled) {
    co_return;
  }
  standby_watchdog_running_ = true;
  while (true) {
    co_await machine_->sim().Delay(kHaHeartbeat);
    if (crashed_ || role_ == HaRole::kPrimary) {
      break;
    }
    const SimTime now = machine_->sim().Now();
    if (joined_ && now - last_append_ > kTakeoverGrace) {
      // The primary went silent past its lease; it has fenced itself by now
      // (kTakeoverGrace > kHaLease, one simulated clock).
      standby_watchdog_running_ = false;
      TakeOver(epoch_ + 1);
      co_return;
    }
    if (!joined_ && now - standby_since_ > kOrphanGrace) {
      // Never saw a primary: both coordinators may have crashed before the
      // first join. Promote two epochs ahead so this can never collide with
      // a peer's +1 takeover; a higher-epoch primary deposes a lower one
      // when the log channel connects.
      standby_watchdog_running_ = false;
      TakeOver(epoch_ + 2);
      co_return;
    }
  }
  standby_watchdog_running_ = false;
}

Co<MessageBody> Coordinator::HandleReplAppend(TcpConn* conn, const ReplAppendRequest& request) {
  ReplAppendResponse ack;
  ack.epoch = epoch_;
  if (!params_.ha.enabled) {
    ack.error = "ha disabled";
    co_return MessageBody{std::move(ack)};
  }
  co_await machine_->cpu().Run(params_.request_compute, 0);
  if (crashed_) {
    ack.error = "coordinator down";
    co_return MessageBody{std::move(ack)};
  }
  if (request.epoch < epoch_) {
    ack.error = "stale epoch";
    co_return MessageBody{std::move(ack)};
  }
  if (role_ == HaRole::kPrimary) {
    if (request.epoch == epoch_) {
      // Epoch allocation (+1/+2) makes two primaries on one epoch impossible;
      // an equal-epoch append is our own stale peer echoing back.
      ack.error = "stale epoch";
      co_return MessageBody{std::move(ack)};
    }
    // A higher-epoch primary exists — we were deposed without noticing
    // (e.g. healed partition). Fence first, then follow.
    CALLIOPE_LOG(kWarning, "coord")
        << node_->name() << ": saw primary with epoch " << request.epoch << "; stepping down";
    StepDown();
  }
  if (request.snapshot) {
    ResetVolatileState();
    for (const ReplRecord& record : request.records) {
      Apply(record);
    }
    joined_ = true;
  } else {
    if (!joined_) {
      ack.error = "need snapshot";
      co_return MessageBody{std::move(ack)};
    }
    for (const ReplRecord& record : request.records) {
      Apply(record);
    }
  }
  epoch_ = request.epoch;
  next_session_ = request.next_session;
  next_stream_ = request.next_stream;
  next_group_ = request.next_group;
  last_append_ = machine_->sim().Now();
  repl_in_conn_ = conn;
  StandbyWatchdog();  // no-op when already running
  ack.ok = true;
  ack.applied_seq = request.first_seq + static_cast<int64_t>(request.records.size()) - 1;
  ack.epoch = epoch_;
  co_return MessageBody{std::move(ack)};
}

void Coordinator::Replicate(ReplRecord record, ResourceLedger::Txn* txn) {
  if (!is_primary()) {
    return;  // a deposed primary's lingering coroutines write nothing
  }
  Apply(record, txn);
  if (!params_.ha.enabled || crashed_) {
    return;
  }
  if (!peer_joined_ && need_snapshot_) {
    // No standby holds our snapshot; the next join's snapshot covers this
    // mutation, so buffering the delta would only duplicate it.
    return;
  }
  pending_records_.push_back(std::move(record));
  ++oplog_appended_;
  oplog_cond_->NotifyAll();
}

void Coordinator::Apply(const ReplRecord& record, ResourceLedger::Txn* txn) {
  // The one writer of replicated state, on both coordinators. Mechanical and
  // defensive: unknown ids no-op, no placement, no RPCs, and never a catalog
  // write (the catalog is the shared durable database — the primary already
  // updated it). Connection bindings stay with the caller.
  //
  // Takes one ledger hold outside any launch: a stream replayed on the
  // standby, or one end of a copy.
  const auto hold = [&](ResourceLedger::HoldId id, const std::string& msu,
                        ResourceLedger::ReserveItem item) {
    auto reservation = state_.ledger.Reserve(msu, {std::move(item)});
    if (reservation.ok()) {
      reservation->CommitNext(id);
    }
  };
  const auto apply = Overloaded{
      [&](const ReplSessionOpened& r) {
        SessionInfo session;
        session.id = r.session;
        session.customer = r.customer;
        session.admin = r.admin;
        state_.sessions[r.session] = std::move(session);
      },
      [&](const ReplSessionClosed& r) { state_.sessions.erase(r.session); },
      [&](const ReplPortRegistered& r) {
        auto it = state_.sessions.find(r.session);
        if (it != state_.sessions.end()) {
          it->second.ports[r.port.name] = r.port;
        }
      },
      [&](const ReplPortUnregistered& r) {
        auto it = state_.sessions.find(r.session);
        if (it != state_.sessions.end()) {
          it->second.ports.erase(r.port_name);
        }
      },
      [&](const ReplMsuUp& r) {
        if (r.reattach) {
          state_.ledger.ReattachMsu(r.node, r.disk_count, r.free_space, r.nic_budget, r.cache_memory);
        } else {
          state_.ledger.RegisterMsu(r.node, r.disk_count, r.free_space, r.nic_budget, r.cache_memory);
        }
      },
      [&](const ReplMsuDown& r) {
        state_.ledger.MarkDown(r.node);
        // Shared delivery groups die with the MSU. Stream teardown follows as
        // explicit ReplStreamEnded/ReplGroupEnded records.
        std::erase_if(state_.shared_groups,
                      [&](const auto& entry) { return entry.second.msu == r.node; });
      },
      [&](const ReplStreamStarted& r) {
        if (txn != nullptr) {
          txn->CommitNext(r.stream);
        } else {
          hold(r.stream, r.msu, ResourceLedger::ReserveItem{r.disk, r.rate, r.space, r.cache});
        }
        state_.active_streams[r.stream] = r;
        state_.groups[r.group].push_back(r.stream);
      },
      [&](const ReplGroupStarted& r) {
        state_.group_requests[r.group] = r.request;
        DropInFlight(r.group);  // the retry the pop announced has landed
      },
      [&](const ReplStreamEnded& r) {
        state_.shared_groups.erase(r.stream);  // no-op unless a shared delivery ended
        auto it = state_.active_streams.find(r.stream);
        if (it == state_.active_streams.end()) {
          return;
        }
        const GroupId group = it->second.group;
        state_.active_streams.erase(it);
        (void)state_.ledger.Release(r.stream, r.space_used);
        auto group_it = state_.groups.find(group);
        if (group_it != state_.groups.end()) {
          // The group itself ends with an explicit ReplGroupEnded.
          std::erase(group_it->second, r.stream);
        }
      },
      [&](const ReplGroupEnded& r) {
        state_.groups.erase(r.group);
        state_.group_requests.erase(r.group);
      },
      [&](const ReplSharedGroupFormed& r) {
        state_.shared_groups[r.delivery_stream] = r;
      },
      [&](const SharedMemberSplit& r) {
        if (state_.active_streams.erase(r.member_stream) == 0) {
          return;  // failover raced the split (or a repeat): nothing left to end
        }
        auto shared = state_.shared_groups.find(r.delivery_stream);
        if (shared != state_.shared_groups.end() && shared->second.member_count > 0) {
          --shared->second.member_count;
        }
        (void)state_.ledger.Release(r.member_stream);
        auto request = state_.group_requests.find(r.group);
        if (request != state_.group_requests.end()) {
          // The member's solo re-admission parks like a retry until its
          // outcome is logged: pauses start paused at the split offset, seeks
          // at the seek target, on the MSU whose page cache holds the title.
          PendingRequest resume = std::move(request->second);
          resume.start_offsets.assign(
              1, r.op == VcrCommand::Op::kSeek ? r.seek_to : r.media_offset);
          resume.start_paused = (r.op == VcrCommand::Op::kPause);
          resume.prefer_msu = r.msu_node;
          state_.repl_in_flight.push_back(std::move(resume));
        }
        state_.groups.erase(r.group);
        state_.group_requests.erase(r.group);
      },
      [&](const ReplBatchJoined& r) {
        DropInFlight(r.request.group);  // a launch that found its MSU unreachable
        state_.share_batches[r.request.content].push_back(r.request);
      },
      [&](const ReplBatchFlushed& r) {
        // The waiters park like retries until their shared launch's outcome
        // is logged: a ReplGroupStarted each, or a push or pop per waiter.
        auto batch = state_.share_batches.find(r.content);
        if (batch == state_.share_batches.end()) {
          return;
        }
        for (PendingRequest& waiter : batch->second) {
          state_.repl_in_flight.push_back(std::move(waiter));
        }
        state_.share_batches.erase(batch);
      },
      [&](const ReplPendingPushed& r) {
        DropInFlight(r.request.group);  // an exhausted retry went back in line
        state_.pending.push_back(r.request);
      },
      [&](const ReplPendingPopped& r) {
        // A retry pop does not forget the request yet: the primary may die
        // before logging the outcome. It parks in the in-flight list until a
        // ReplGroupStarted / ReplPendingPushed / final pop resolves it; takeover
        // re-queues whatever is still parked, so a crash mid-retry never loses a
        // request the client was told is queued. A pop for good drops it.
        for (auto it = state_.pending.begin(); it != state_.pending.end(); ++it) {
          if (it->group == r.group) {
            if (r.retrying) {
              state_.repl_in_flight.push_back(std::move(*it));
            }
            state_.pending.erase(it);
            break;
          }
        }
        if (!r.retrying) {
          DropInFlight(r.group);
        }
      },
      [&](const ReplPendingReordered&) {
        std::stable_sort(state_.pending.begin(), state_.pending.end(),
                         [](const PendingRequest& a, const PendingRequest& b) {
                           return a.admission_class < b.admission_class;
                         });
      },
      [&](const ReplReplicationStarted& r) {
        state_.repl_ops[r.op] = r;
        if (r.op >= next_repl_op_) {
          // Post-takeover mints must not collide with ops the MSUs still track.
          next_repl_op_ = r.op + 1;
        }
        using CopyEnd = ResourceLedger::CopyEnd;
        hold(ResourceLedger::CopyHold(r.op, CopyEnd::kSource), r.source_msu,
             ResourceLedger::ReserveItem{r.source_disk, r.rate, Bytes()});
        hold(ResourceLedger::CopyHold(r.op, CopyEnd::kTarget), r.target_msu,
             ResourceLedger::ReserveItem{r.target_disk, r.rate, r.space});
      },
      [&](const ReplReplicationEnded& r) {
        auto it = state_.repl_ops.find(r.op);
        if (it == state_.repl_ops.end()) {
          return;
        }
        // An installed replica keeps the target's space: it is written now.
        using CopyEnd = ResourceLedger::CopyEnd;
        (void)state_.ledger.Release(ResourceLedger::CopyHold(r.op, CopyEnd::kSource));
        (void)state_.ledger.Release(ResourceLedger::CopyHold(r.op, CopyEnd::kTarget),
                              r.installed ? it->second.space : Bytes());
        state_.repl_ops.erase(it);
      },
      [&](const ReplProgress& r) {
        for (const ReplProgress::Entry& entry : r.entries) {
          auto it = state_.active_streams.find(entry.stream);
          if (it != state_.active_streams.end()) {
            it->second.offset = entry.offset;
          }
        }
      },
  };
  std::visit(apply, record);
}

std::vector<ReplRecord> Coordinator::Snapshot() const {
  std::vector<ReplRecord> records;
  // MSU accounts first: replayed stream reservations need them in place.
  for (const auto& [name, account] : state_.ledger.msus()) {
    ReplMsuUp up;
    up.node = name;
    up.disk_count = account.disk_count;
    // Add back the space held by current-epoch holds: the standby's replay of
    // ReplStreamStarted and ReplReplicationStarted re-debits it through Reserve.
    up.free_space = account.free_space;
    state_.ledger.ForEachHold([&](ResourceLedger::HoldId, const ResourceLedger::Hold& hold) {
      if (hold.msu == name && state_.ledger.IsCurrent(hold)) {
        up.free_space += hold.item.space;
      }
    });
    up.nic_budget = account.nic_budget;
    up.cache_memory = account.cache_memory;
    records.push_back(ReplRecord{std::move(up)});
    if (!account.up) {
      records.push_back(ReplRecord{ReplMsuDown(name)});
    }
  }
  for (const auto& [id, session] : state_.sessions) {
    ReplSessionOpened opened;
    opened.session = id;
    opened.customer = session.customer;
    opened.admin = session.admin;
    records.push_back(ReplRecord{std::move(opened)});
    for (const auto& [port_name, port] : session.ports) {
      ReplPortRegistered registered;
      registered.session = id;
      registered.port = port;
      records.push_back(ReplRecord{std::move(registered)});
    }
  }
  for (const auto& [id, active] : state_.active_streams) {
    records.push_back(ReplRecord{active});
  }
  for (const auto& [group, request] : state_.group_requests) {
    records.push_back(ReplRecord{ReplGroupStarted(group, request)});
  }
  for (const auto& [id, shared] : state_.shared_groups) {
    records.push_back(ReplRecord{shared});
  }
  for (const auto& [title, waiters] : state_.share_batches) {
    for (const PendingRequest& waiter : waiters) {
      records.push_back(ReplRecord{ReplBatchJoined(waiter)});
    }
  }
  for (const PendingRequest& request : state_.pending) {
    records.push_back(ReplRecord{ReplPendingPushed(request)});
  }
  for (const PendingRequest& request : state_.repl_in_flight) {
    records.push_back(ReplRecord{ReplPendingPushed(request)});
    records.push_back(ReplRecord{ReplPendingPopped(request.group, true)});
  }
  for (const auto& [op_id, op] : state_.repl_ops) {
    records.push_back(ReplRecord{op});
  }
  return records;
}

void Coordinator::ResetVolatileState() {
  state_ = ReplicatedState();
  msu_conns_.clear();
  session_conns_.clear();
  conn_sessions_.clear();
}

void Coordinator::StepDown() {
  if (role_ != HaRole::kPrimary) {
    return;
  }
  // Flip the role first so OnConnClosed treats the closures below as
  // housekeeping, not MSU failures.
  role_ = HaRole::kStandby;
  trace_.Instant(trace_track_, metrics_prefix_, "stepdown", "epoch " + std::to_string(epoch_));
  std::vector<TcpConn*> conns;
  for (const auto& [name, conn] : msu_conns_) {
    conns.push_back(conn);
  }
  for (const auto& [id, conn] : session_conns_) {
    conns.push_back(conn);
  }
  if (repl_conn_ != nullptr) {
    conns.push_back(repl_conn_);
    repl_conn_ = nullptr;
  }
  if (repl_in_conn_ != nullptr) {
    conns.push_back(repl_in_conn_);
    repl_in_conn_ = nullptr;
  }
  for (TcpConn* conn : conns) {
    conn->Close();  // MSUs and clients redial and find the new primary
  }
  ResetVolatileState();  // the new primary's snapshot rebuilds our shadow
  peer_joined_ = false;
  pending_records_.clear();
  oplog_appended_ = 0;
  oplog_acked_ = 0;
  flush_cond_->NotifyAll();  // SyncReplicate waiters fail with "not primary"
  BecomeStandby();
}

void Coordinator::TakeOver(int64_t new_epoch) {
  if (crashed_ || role_ == HaRole::kPrimary) {
    return;
  }
  const SimTime now = machine_->sim().Now();
  const SimTime gap = now - last_append_;
  epoch_ = new_epoch;
  role_ = HaRole::kPrimary;
  joined_ = false;
  peer_joined_ = false;
  need_snapshot_ = true;
  pending_records_.clear();
  oplog_appended_ = 0;
  oplog_acked_ = 0;
  ++takeovers_count_;
  metrics_.histogram(metrics_prefix_ + ".ha.takeover_gap_us").Record(gap.micros());
  trace_.Instant(trace_track_, metrics_prefix_, "takeover",
                 "epoch " + std::to_string(new_epoch) + ", gap " +
                     std::to_string(gap.micros()) + "us");
  CALLIOPE_LOG(kInfo, "coord") << node_->name() << ": taking over as primary, epoch "
                               << new_epoch << " (gap " << gap.micros() << "us)";
  if (repl_in_conn_ != nullptr) {
    TcpConn* conn = repl_in_conn_;
    repl_in_conn_ = nullptr;
    conn->Close();
  }
  ReplicationLoop();
  // Reconciliation sweep: MSUs that do not redial us within the grace window
  // are dead; their groups fail over to surviving replicas.
  for (const auto& [name, account] : state_.ledger.msus()) {
    machine_->sim().ScheduleAfter(kMsuRejoinGrace, [this, node = name] {
      if (crashed_ || role_ != HaRole::kPrimary) {
        return;
      }
      if (MsuConn(node) == nullptr && state_.ledger.IsUp(node)) {
        CALLIOPE_LOG(kWarning, "coord")
            << node_->name() << ": MSU " << node << " never rejoined after takeover";
        MarkMsuDown(node);
        RetryPendingQueue();  // requests that waited for it now place elsewhere
      }
    });
  }
  // Requests the old primary was still launching — retries, shared-batch
  // waiters, split members — go back in line: better a duplicate failure
  // notification than a request the client believes is admitted silently
  // evaporating.
  const std::vector<PendingRequest> in_flight = state_.repl_in_flight;
  for (const PendingRequest& request : in_flight) {
    Replicate(ReplRecord{ReplPendingPushed(request)});
  }
  // Groups whose MSU failover was in flight when the primary died: their
  // ReplStreamEnded records arrived but the restart on a survivor was never
  // logged. Re-run the failover pipeline for any group left with no streams.
  // (A normal quit logs StreamEnded + GroupEnded back-to-back in one batch,
  // so a member-less group here really is an interrupted failover.)
  std::vector<PendingRequest> orphaned;
  for (const auto& [group, request] : state_.group_requests) {
    auto members = state_.groups.find(group);
    if (members != state_.groups.end() && !members->second.empty()) {
      continue;
    }
    bool queued = false;
    for (const PendingRequest& waiting : state_.pending) {
      if (waiting.group == group) {
        queued = true;
        break;
      }
    }
    if (!queued) {
      orphaned.push_back(request);
    }
  }
  for (PendingRequest& request : orphaned) {
    CALLIOPE_LOG(kWarning, "coord") << node_->name() << ": group " << request.group
                                    << " was mid-failover at takeover; retrying";
    // Match MarkMsuDown's contract: failover owns the request, the stale
    // bookkeeping goes first.
    Replicate(ReplRecord{ReplGroupEnded(request.group)});
    FailoverGroup(std::move(request));
  }
  // Inherited open batches get a fresh window.
  for (const auto& [title, waiters] : state_.share_batches) {
    FlushShareBatch(title);
  }
  // Queued requests survived the failover; try them against our ledger. The
  // replicated enqueue stamps survive too, so the new primary re-arms the
  // queue-deadline sweep over the inherited queue.
  ScheduleExpirySweep();
  RetryPendingQueue();
}

void Coordinator::DropInFlight(GroupId group) {
  for (auto it = state_.repl_in_flight.begin(); it != state_.repl_in_flight.end(); ++it) {
    if (it->group == group) {
      state_.repl_in_flight.erase(it);
      return;
    }
  }
}

}  // namespace calliope
