#include "src/coord/coordinator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/logging.h"

namespace calliope {

namespace {

// Seed for stochastic placement policies (power-of-two), so runs stay
// reproducible.
constexpr uint64_t kPlacementSeed = 1996;
// Sharing: requests for one title arriving within the batch window coalesce
// into one shared delivery group fed by a single disk stream (well under the
// client's 60 s WaitForGroupReady timeout). A viewer arriving within the
// cache horizon of a live shared group's playback position attaches as a
// cache-fed solo stream (no disk bandwidth) instead of opening a batch.
constexpr SimTime kShareBatchWindow = SimTime::Millis(500);
constexpr SimTime kCacheHorizon = SimTime::Seconds(8);
// Rebalancing: planner cadence and the cluster-wide cap on simultaneously
// running copies.
constexpr SimTime kRebalanceInterval = SimTime::Seconds(2);
constexpr int kMaxConcurrentCopies = 2;
// Traffic control: interactive and standard pending-queue bounds (the bulk
// bound is TrafficControlConfig::bulk_queue_cap).
constexpr int kInteractiveQueueCap = 64;
constexpr int kStandardQueueCap = 32;
// Saturation-governor cadence: each tick consults the overload probe and,
// while it reports a breach, sheds at most kShedPerTick queued requests
// (newest-first, bulk before standard), so one long breach degrades
// gradually rather than emptying the queue in a single burst.
constexpr SimTime kGovernorInterval = SimTime::Millis(500);
constexpr int kShedPerTick = 4;

}  // namespace

Coordinator::Coordinator(Machine& machine, NetNode& node, std::shared_ptr<Catalog> catalog,
                         MetricsRegistry& metrics, TraceRecorder& trace,
                         CoordinatorParams params)
    : machine_(&machine),
      node_(&node),
      params_(params),
      catalog_(std::move(catalog)),
      metrics_(metrics),
      trace_(trace),
      metrics_prefix_(params_.ha.start_as_standby ? "coord2" : "coord"),
      trace_track_(params_.ha.start_as_standby ? "coord2" : "coordinator") {
  const PlacementPolicyRegistry registry = PlacementPolicyRegistry::WithBuiltins();
  auto policy = registry.Instantiate(params_.placement_policy, kPlacementSeed);
  if (!policy.ok()) {
    CALLIOPE_LOG(kWarning, "coord") << "unknown placement policy '" << params_.placement_policy
                                    << "', falling back to least-loaded";
    policy = registry.Instantiate("least-loaded", kPlacementSeed);
  }
  policy_ = std::move(policy).value();
  PublishMetrics();
  (void)node_->ListenTcp(params_.listen_port, [this](TcpConn* conn) { OnAccept(conn); });
  if (params_.ha.enabled) {
    StartHa();
  }
  if (params_.rebalance.enabled) {
    RebalanceLoop();
  }
  if (params_.traffic.enabled) {
    ShedGovernorLoop();
  }
}

void Coordinator::PublishMetrics() {
  const auto pull = [this](const std::string& name, const int64_t& tally) {
    metrics_.SetCounterCallback(metrics_prefix_ + name, [&tally] { return tally; });
  };
  const auto gauge = [this](const std::string& name, std::function<int64_t()> fn) {
    metrics_.SetGaugeCallback(metrics_prefix_ + name, std::move(fn));
  };
  pull(".admissions.accepted", admit_accepted_);
  pull(".admissions.rejected", admit_rejected_);
  pull(".admissions.queued", admit_queued_);
  pull(".requests.expired", requests_expired_count_);
  pull(".failover.groups", failover_groups_);
  pull(".failover.recordings_lost", recordings_lost_);
  pull(".requests_lost", requests_lost_count_);
  pull(".requests.handled", requests_handled_);
  gauge(".pending.depth", [this] { return static_cast<int64_t>(state_.pending.size()); });
  gauge(".streams.active", [this] { return static_cast<int64_t>(state_.active_streams.size()); });
  gauge(".msus.up", [this] {
    return static_cast<int64_t>(std::ranges::count_if(
        state_.ledger.msus(), [](const auto& entry) { return entry.second.up; }));
  });
  if (params_.sharing.enabled) {
    pull(".groups.formed", groups_formed_);
    pull(".groups.members", groups_members_);
    pull(".groups.attaches", groups_attaches_);
    pull(".groups.splits", groups_splits_);
    gauge(".groups.active", [this] { return static_cast<int64_t>(state_.shared_groups.size()); });
    gauge(".groups.hot_titles", [this] {
      int64_t hot = 0;
      for (const auto& [title, popularity] : popularity_) {
        if (IsHot(title)) {
          ++hot;
        }
      }
      return hot;
    });
  }
  if (params_.ha.enabled) {
    pull(".ha.takeovers", takeovers_count_);
    pull(".repl.batches", repl_batches_);
    pull(".repl.records_shipped", repl_records_shipped_);
    metrics_.histogram(metrics_prefix_ + ".ha.takeover_gap_us");  // TakeOver records by name
    gauge(".ha.epoch", [this] { return epoch_; });
    gauge(".ha.role", [this] { return static_cast<int64_t>(role_ == HaRole::kPrimary ? 1 : 0); });
    gauge(".repl.lag_records", [this] { return oplog_appended_ - oplog_acked_; });
    gauge(".repl.log_len", [this] { return static_cast<int64_t>(pending_records_.size()); });
  }
  if (params_.rebalance.enabled) {
    pull(".rebalance.ticks", rebalance_ticks_);
    pull(".rebalance.copies_started", rebalance_copies_started_);
    pull(".rebalance.copies_installed", rebalance_copies_installed_);
    pull(".rebalance.copies_aborted", rebalance_copies_aborted_);
    pull(".rebalance.preemptions", rebalance_preemptions_);
    pull(".rebalance.demotions", rebalance_demotions_);
    gauge(".rebalance.active_copies", [this] { return static_cast<int64_t>(state_.repl_ops.size()); });
  }
  if (params_.traffic.enabled) {
    for (int c = 0; c < kAdmissionClassCount; ++c) {
      const AdmissionClass klass = static_cast<AdmissionClass>(c);
      const std::string stem = std::string(".admission.") + AdmissionClassName(klass);
      pull(stem + ".accepted", class_accepted_[c]);
      pull(stem + ".queued", class_queued_[c]);
      pull(stem + ".shed", class_shed_[c]);
      pull(stem + ".expired", class_expired_[c]);
      gauge(stem + ".depth",
            [this, klass] { return static_cast<int64_t>(pending_count_for(klass)); });
    }
    pull(".shed.episodes", shed_episodes_);
    pull(".shed.rejected", shed_rejected_);
    pull(".shed.degraded", shed_degraded_);
    pull(".shed.rebalance_paused", shed_rebalance_paused_);
    gauge(".shed.active", [this] { return shed_active_ ? int64_t{1} : int64_t{0}; });
  }
}

void Coordinator::RecordAdmission(const char* kind, const PendingRequest& request,
                                  const Status& outcome, SimTime start) {
  const size_t klass = static_cast<size_t>(request.admission_class);
  const bool known_class = klass < kAdmissionClassCount;
  const char* verdict = "rejected";
  if (outcome.ok()) {
    verdict = "accepted";
    ++admit_accepted_;
    if (known_class) {
      ++class_accepted_[klass];
    }
  } else if (outcome.code() == StatusCode::kResourceExhausted) {
    verdict = "queued";
    ++admit_queued_;
    if (known_class) {
      ++class_queued_[klass];
    }
  } else {
    ++admit_rejected_;
  }
  trace_.Span(trace_track_, metrics_prefix_, std::string("admit:") + kind, start,
              request.content + " group " + std::to_string(request.group) + " " + verdict);
}

void Coordinator::OnAccept(TcpConn* conn) {
  conn->set_request_handler(
      [this, conn](const MessageBody& body) -> Co<MessageBody> {
        co_return co_await Dispatch(conn, body);
      });
  conn->set_close_handler([this](TcpConn* closed) { OnConnClosed(closed); });
}

Co<MessageBody> Coordinator::Dispatch(TcpConn* conn, MessageArg request) {
  if (crashed_) {
    co_return MessageBody{SimpleResponse{false, "coordinator down"}};
  }
  const MessageBody& body = request.value;
  if (const auto* m = std::get_if<ReplAppendRequest>(&body)) {
    co_return co_await HandleReplAppend(conn, *m);
  }
  if (!is_primary()) {
    // Fencing: a standby serves nobody; callers redial the pair and find
    // whichever coordinator currently holds the primaryship.
    co_return MessageBody{SimpleResponse{false, "not primary"}};
  }
  // Every request consumes Coordinator CPU (the shared resource whose
  // capacity bounds system size, §3.3).
  co_await machine_->cpu().Run(params_.request_compute, 0);
  ++requests_handled_;

  const int64_t log_mark = oplog_appended_;
  MessageBody response{SimpleResponse{false, "coordinator: unknown request"}};
  if (const auto* open_req = std::get_if<OpenSessionRequest>(&body)) {
    response = co_await HandleOpenSession(conn, *open_req);
  } else if (const auto* list_req = std::get_if<ListContentRequest>(&body)) {
    response = co_await HandleListContent(*list_req);
  } else if (const auto* reg_req = std::get_if<RegisterPortRequest>(&body)) {
    response = co_await HandleRegisterPort(conn, *reg_req);
  } else if (const auto* unreg_req = std::get_if<UnregisterPortRequest>(&body)) {
    response = co_await HandleUnregisterPort(conn, *unreg_req);
  } else if (const auto* play_req = std::get_if<PlayRequest>(&body)) {
    response = co_await HandlePlay(conn, *play_req);
  } else if (const auto* record_req = std::get_if<RecordRequest>(&body)) {
    response = co_await HandleRecord(conn, *record_req);
  } else if (const auto* delete_req = std::get_if<DeleteContentRequest>(&body)) {
    response = co_await HandleDelete(conn, *delete_req);
  } else if (const auto* scan_req = std::get_if<LoadFastScanRequest>(&body)) {
    response = co_await HandleLoadFastScan(conn, *scan_req);
  } else if (const auto* msu_req = std::get_if<MsuRegisterRequest>(&body)) {
    response = co_await HandleMsuRegister(conn, *msu_req);
  } else if (const auto* note = std::get_if<StreamTerminated>(&body)) {
    HandleStreamTerminated(*note);
    response = MessageBody{SimpleResponse{true, ""}};
  } else if (const auto* split = std::get_if<SharedMemberSplit>(&body)) {
    response = co_await HandleSharedMemberSplit(*split);
  } else if (const auto* report = std::get_if<StreamProgressReport>(&body)) {
    HandleProgressReport(*report);
    response = MessageBody{SimpleResponse{true, ""}};
  } else if (const auto* installed = std::get_if<ReplicaInstalled>(&body)) {
    HandleReplicaInstalled(*installed);
    response = MessageBody{SimpleResponse{true, ""}};
  } else if (const auto* copy_failed = std::get_if<ReplicaCopyFailed>(&body)) {
    HandleReplicaCopyFailed(*copy_failed);
    response = MessageBody{SimpleResponse{true, ""}};
  }

  // Synchronous log shipping: no externally visible state change leaves here
  // before a joined standby acknowledges the records it produced. A primary
  // crash can then only lose admissions the caller was never told about.
  if (params_.ha.enabled && role_ == HaRole::kPrimary && oplog_appended_ > log_mark) {
    const bool flushed = co_await SyncReplicate(oplog_appended_);
    if (!flushed) {
      co_return MessageBody{SimpleResponse{false, "not primary"}};
    }
  }
  co_return response;
}

void Coordinator::Crash() {
  // The process dies with its in-memory scheduling state. The node goes down
  // first so the resulting connection breakage (including our own MSU conns)
  // is not misread as MSU failures needing failover.
  //
  // With a joined standby (or as a standby) the state survives on the peer;
  // otherwise every queued request is lost for good.
  const bool state_survives =
      params_.ha.enabled && (role_ == HaRole::kStandby || peer_joined_);
  if (!state_survives) {
    requests_lost_count_ += static_cast<int64_t>(state_.pending.size());
  }
  crashed_ = true;
  trace_.Instant(trace_track_, metrics_prefix_, "crash",
                 std::to_string(state_.active_streams.size()) + " streams forgotten");
  node_->SetDown(true);
  ResetVolatileState();  // in-flight copies are orphaned; MSUs finish or abort alone
  expiry_token_.Cancel();
  expiry_armed_at_ = SimTime();
  shed_active_ = false;
  rebalance_paused_ = false;
  popularity_.clear();
  // HA volatile state dies with the process.
  repl_conn_ = nullptr;
  repl_in_conn_ = nullptr;
  joined_ = false;
  peer_joined_ = false;
  need_snapshot_ = true;
  pending_records_.clear();
  oplog_appended_ = 0;
  oplog_acked_ = 0;
  if (flush_cond_ != nullptr) {
    flush_cond_->NotifyAll();
  }
  if (oplog_cond_ != nullptr) {
    oplog_cond_->NotifyAll();
  }
}

void Coordinator::Restart() {
  if (params_.ha.enabled) {
    // The peer took over (or will, via the orphan grace); rejoin as its
    // standby and wait for a snapshot. No catalog scrub: in-progress
    // recordings now belong to the new primary and must not be corrupted.
    node_->SetDown(false);
    crashed_ = false;
    trace_.Instant(trace_track_, metrics_prefix_, "restart", "rejoining as standby");
    BecomeStandby();
    if (params_.rebalance.enabled) {
      RebalanceLoop();  // the crash broke the loop; it idles until primary
    }
    if (params_.traffic.enabled) {
      ShedGovernorLoop();  // likewise: idles until this node is primary
    }
    return;
  }
  // The catalog survived (the paper's durable database); scrub recordings
  // that were in progress at the crash — their streams are unknown now, so
  // they can never be sealed through this Coordinator.
  std::vector<std::string> aborted;
  for (const ContentRecord* record : catalog_->ListContent()) {
    if (record->recording_in_progress) {
      aborted.push_back(record->name);
    }
  }
  for (const std::string& name : aborted) {
    (void)catalog_->RemoveContent(name);
  }
  node_->SetDown(false);  // the TCP listener survives on the node
  crashed_ = false;
  trace_.Instant(trace_track_, metrics_prefix_, "restart");
  if (params_.rebalance.enabled) {
    RebalanceLoop();
  }
  if (params_.traffic.enabled) {
    ShedGovernorLoop();
  }
}

void Coordinator::OnConnClosed(TcpConn* conn) {
  if (crashed_) {
    return;  // connection breakage caused by our own crash
  }
  if (conn == repl_in_conn_) {
    // The primary's node died (a conn only breaks on peer-node death here).
    // A joined standby holds its full state and promotes immediately.
    repl_in_conn_ = nullptr;
    if (params_.ha.enabled && role_ == HaRole::kStandby && joined_) {
      TakeOver(epoch_ + 1);
    }
    return;
  }
  if (!is_primary()) {
    return;  // a standby tracks no live MSU or client connections
  }
  // A broken MSU connection marks the MSU unavailable (§2.2 fault tolerance).
  for (const auto& [name, msu_conn] : msu_conns_) {
    if (msu_conn == conn && state_.ledger.IsUp(name)) {
      MarkMsuDown(name);
      return;
    }
  }
  // A dropped client session deallocates its ports.
  auto it = conn_sessions_.find(conn);
  if (it != conn_sessions_.end()) {
    const SessionId session = it->second;
    conn_sessions_.erase(it);
    session_conns_.erase(session);
    Replicate(ReplRecord{ReplSessionClosed(session)});
  }
}

Result<Coordinator::SessionInfo*> Coordinator::FindSession(SessionId id) {
  auto it = state_.sessions.find(id);
  if (it == state_.sessions.end()) {
    return NotFoundError("no such session: " + std::to_string(id));
  }
  return &it->second;
}

Co<MessageBody> Coordinator::HandleOpenSession(TcpConn* conn, const OpenSessionRequest& request) {
  auto customer = catalog_->Authenticate(request.customer, request.credential);
  if (!customer.ok()) {
    co_return MessageBody{OpenSessionResponse{false, customer.status().ToString(), 0}};
  }
  if (request.resume_session != 0) {
    // Failover redial: the session was replicated to us; rebind it to the
    // client's fresh connection instead of minting a new identity.
    auto it = state_.sessions.find(request.resume_session);
    if (it != state_.sessions.end() && it->second.customer == request.customer) {
      if (TcpConn* old = std::exchange(session_conns_[it->second.id], conn); old != nullptr) {
        conn_sessions_.erase(old);
      }
      conn_sessions_[conn] = it->second.id;
      OpenSessionResponse resumed{true, "", it->second.id};
      resumed.epoch = wire_epoch();
      co_return MessageBody{std::move(resumed)};
    }
  }
  const SessionId id = next_session_++;
  ReplSessionOpened opened;
  opened.session = id;
  opened.customer = request.customer;
  opened.admin = (*customer)->admin;
  Replicate(ReplRecord{std::move(opened)});
  session_conns_[id] = conn;
  conn_sessions_[conn] = id;
  OpenSessionResponse response{true, "", id};
  response.epoch = wire_epoch();
  co_return MessageBody{std::move(response)};
}

Co<MessageBody> Coordinator::HandleListContent(const ListContentRequest& request) {
  ListContentResponse response;
  auto session = FindSession(request.session);
  if (!session.ok()) {
    response.error = session.status().ToString();
    co_return MessageBody{std::move(response)};
  }
  response.ok = true;
  for (const ContentRecord* record : catalog_->ListContent()) {
    // Component items (parent.N) are internal; list only top-level entries.
    if (record->name.find('.') != std::string::npos) {
      continue;
    }
    ContentInfo info;
    info.name = record->name;
    info.type = record->type_name;
    info.duration = record->duration;
    info.has_fast_scan = record->has_fast_scan();
    response.items.push_back(std::move(info));
  }
  co_return MessageBody{std::move(response)};
}

Co<MessageBody> Coordinator::HandleRegisterPort(TcpConn* conn,
                                                const RegisterPortRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return MessageBody{SimpleResponse{false, session.status().ToString()}};
  }
  auto type = catalog_->FindType(request.type_name);
  if (!type.ok()) {
    co_return MessageBody{SimpleResponse{false, type.status().ToString()}};
  }
  if ((*session)->ports.contains(request.port_name)) {
    co_return MessageBody{SimpleResponse{false, "port exists: " + request.port_name}};
  }
  // Composite display ports are "constructed from previously-registered
  // display ports of the component types".
  if ((*type)->is_composite()) {
    if (request.component_ports.size() != (*type)->components.size()) {
      co_return MessageBody{
          SimpleResponse{false, "composite port needs " +
                                    std::to_string((*type)->components.size()) +
                                    " component ports"}};
    }
    for (size_t i = 0; i < (*type)->components.size(); ++i) {
      auto component = (*session)->ports.find(request.component_ports[i]);
      if (component == (*session)->ports.end()) {
        co_return MessageBody{
            SimpleResponse{false, "unknown component port: " + request.component_ports[i]}};
      }
      if (component->second.type_name != (*type)->components[i]) {
        co_return MessageBody{
            SimpleResponse{false, "component port " + request.component_ports[i] +
                                      " has type " + component->second.type_name +
                                      ", expected " + (*type)->components[i]}};
      }
    }
  }
  ReplPortRegistered registered;
  registered.session = request.session;
  DisplayPort& port = registered.port;
  port.name = request.port_name;
  port.type_name = request.type_name;
  port.node = request.node;
  port.udp_port = request.udp_port;
  port.control_port = request.control_port;
  port.component_ports = request.component_ports;
  Replicate(ReplRecord{std::move(registered)});
  co_return MessageBody{SimpleResponse{true, ""}};
}

Co<MessageBody> Coordinator::HandleUnregisterPort(TcpConn* conn,
                                                  const UnregisterPortRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return MessageBody{SimpleResponse{false, session.status().ToString()}};
  }
  if (!(*session)->ports.contains(request.port_name)) {
    co_return MessageBody{SimpleResponse{false, "no such port: " + request.port_name}};
  }
  ReplPortUnregistered unregistered;
  unregistered.session = request.session;
  unregistered.port_name = request.port_name;
  Replicate(ReplRecord{std::move(unregistered)});
  co_return MessageBody{SimpleResponse{true, ""}};
}

Result<std::vector<Coordinator::Component>> Coordinator::ResolveComponents(
    const PendingRequest& request, SessionInfo& session) {
  std::vector<Component> components;
  const DisplayPort& root = request.port;

  auto port_for = [&](size_t index, size_t total) -> Result<DisplayPort> {
    if (total == 1) {
      return root;
    }
    if (index >= root.component_ports.size()) {
      return InvalidArgumentError("composite port missing component " + std::to_string(index));
    }
    auto it = session.ports.find(root.component_ports[index]);
    if (it == session.ports.end()) {
      return NotFoundError("component port gone: " + root.component_ports[index]);
    }
    return it->second;
  };

  if (!request.record) {
    CALLIOPE_ASSIGN_OR_RETURN(const ContentRecord* record,
                              catalog_->FindContent(request.content));
    if (record->recording_in_progress) {
      return FailedPreconditionError("content still being recorded: " + request.content);
    }
    if (record->type_name != root.type_name) {
      return InvalidArgumentError("content type " + record->type_name +
                                  " does not match port type " + root.type_name);
    }
    std::vector<std::string> items =
        record->is_composite() ? record->component_items : std::vector<std::string>{record->name};
    for (size_t i = 0; i < items.size(); ++i) {
      CALLIOPE_ASSIGN_OR_RETURN(const ContentRecord* item, catalog_->FindContent(items[i]));
      CALLIOPE_ASSIGN_OR_RETURN(DisplayPort port, port_for(i, items.size()));
      components.push_back(Component{item->name, item->file_name, item->type_name, port});
    }
    return components;
  }

  // Recording: items do not exist yet.
  CALLIOPE_ASSIGN_OR_RETURN(const ContentType* type, catalog_->FindType(request.type_name));
  if (type->name != root.type_name) {
    return InvalidArgumentError("record type " + type->name + " does not match port type " +
                                root.type_name);
  }
  const std::vector<std::string> leaf_types =
      type->is_composite() ? type->components : std::vector<std::string>{type->name};
  for (size_t i = 0; i < leaf_types.size(); ++i) {
    CALLIOPE_ASSIGN_OR_RETURN(DisplayPort port, port_for(i, leaf_types.size()));
    const std::string item_name = leaf_types.size() == 1
                                      ? request.content
                                      : request.content + "." + std::to_string(i);
    components.push_back(Component{item_name, item_name + ".dat", leaf_types[i], port});
  }
  return components;
}

Result<PlacementSpec> Coordinator::BuildPlacementSpec(
    const PendingRequest& request, const std::vector<Component>& components) {
  PlacementSpec spec;
  spec.record = request.record;
  spec.disk_budget = params_.disk_budget;
  spec.prefer_msu = request.prefer_msu;
  for (const Component& component : components) {
    CALLIOPE_ASSIGN_OR_RETURN(const ContentType* type, catalog_->FindType(component.type_name));
    ComponentSpec item;
    item.rate = type->bandwidth_rate;
    item.file_name = component.file_name;
    if (request.record) {
      item.space = type->storage_rate.BytesIn(request.estimated_length);
    } else {
      // Every copy of the item is a candidate; the policy filters by MSU. An
      // item with no reachable copy leaves the component candidate-less, so
      // no MSU is feasible and the request queues (kResourceExhausted) until
      // a copy comes back — the behavior this path has always had.
      auto record = catalog_->FindContent(component.item_name);
      if (record.ok()) {
        for (const ContentLocation& location : (*record)->locations) {
          item.candidates.push_back(
              PlacementCandidate{location.msu_node, location.disk, location.file_name});
        }
      }
    }
    spec.components.push_back(std::move(item));
  }
  return spec;
}

Co<Status> Coordinator::TryStartGroup(const PendingRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return session.status();
  }
  auto resolved = ResolveComponents(request, **session);
  if (!resolved.ok()) {
    co_return resolved.status();
  }
  const std::vector<Component>& components = *resolved;

  // Placement: one MSU must host every member of the group ("Calliope
  // assigns all streams in a group to the same MSU"); which feasible MSU
  // wins is the pluggable policy's call.
  auto spec = BuildPlacementSpec(request, components);
  if (!spec.ok()) {
    co_return spec.status();
  }
  auto placement = policy_->Place(*spec, state_.ledger);
  if (!placement.ok() && placement.status().code() == StatusCode::kResourceExhausted &&
      !state_.repl_ops.empty()) {
    // Live admissions outrank background copies (DESIGN §5.8): abort every
    // in-flight copy touching a candidate MSU, then re-run placement once
    // against the freed bandwidth.
    std::vector<int64_t> preempt;
    for (const auto& [op_id, op] : state_.repl_ops) {
      bool overlaps = spec->record;  // recordings may land on any MSU
      for (const ComponentSpec& component : spec->components) {
        for (const PlacementCandidate& candidate : component.candidates) {
          if (candidate.msu == op.source_msu || candidate.msu == op.target_msu) {
            overlaps = true;
          }
        }
      }
      if (overlaps) {
        preempt.push_back(op_id);
      }
    }
    if (!preempt.empty()) {
      for (int64_t op_id : preempt) {
        AbortReplication(op_id, "preempted by live admission");
      }
      rebalance_preemptions_ += static_cast<int64_t>(preempt.size());
      placement = policy_->Place(*spec, state_.ledger);
    }
  }
  if (!placement.ok()) {
    co_return placement.status();
  }

  // One MSU hosts every member of the group; the first member's client node
  // carries the group's VCR control connection.
  LaunchPlan plan;
  plan.msu = placement->msu;
  plan.start.group = request.group;
  plan.start.client_control_port = request.port.control_port;
  plan.start.start_paused = request.start_paused;
  plan.requests.push_back(request);
  for (size_t i = 0; i < components.size(); ++i) {
    const Component& component = components[i];
    MsuStreamSpec& stream = plan.start.streams.emplace_back();
    stream.file = !request.record && !placement->files[i].empty() ? placement->files[i]
                                                                  : component.file_name;
    stream.protocol = (*catalog_->FindType(component.type_name))->protocol;
    stream.rate = spec->components[i].rate;
    stream.record = request.record;
    stream.estimated_length = request.estimated_length;
    stream.disk_hint = placement->disks[i];
    stream.client_node = component.port.node;
    stream.client_udp_port = component.port.udp_port;
    if (i < request.start_offsets.size()) {
      stream.start_offset = request.start_offsets[i];
    }
    auto content = catalog_->FindContent(component.item_name);
    if (!request.record && content.ok()) {
      // Dynamic replicas carry no fast-scan variants (only the title's data
      // file is copied); a stream served from one falls back to skip-mode
      // scans rather than dangling file references (DESIGN §5.8).
      bool dynamic_copy = false;
      for (const ContentLocation& location : (*content)->locations) {
        const std::string& copy_file =
            location.file_name.empty() ? (*content)->file_name : location.file_name;
        if (location.dynamic && location.msu_node == plan.msu && copy_file == stream.file) {
          dynamic_copy = true;
        }
      }
      if (!dynamic_copy) {
        stream.fast_forward_file = (*content)->fast_forward_file;
        stream.fast_backward_file = (*content)->fast_backward_file;
      }
    }
    ActiveStream& hold = plan.streams.emplace_back();
    hold.msu = plan.msu;
    hold.disk = placement->disks[i];
    hold.component = static_cast<int>(i);
    hold.content_item = component.item_name;
    hold.recording = request.record;
    hold.session = request.session;
    hold.rate = stream.rate;
    hold.space = spec->components[i].space;
    hold.offset = stream.start_offset;
    if (request.record) {
      // New catalog entry, playable once the recording completes.
      ContentRecord record;
      record.name = component.item_name;
      record.type_name = component.type_name;
      record.file_name = component.file_name;
      record.recording_in_progress = true;
      record.locations.push_back(ContentLocation{plan.msu, placement->disks[i]});
      plan.recordings.push_back(std::move(record));
    }
  }
  if (request.record && components.size() > 1) {
    // Parent composite record pointing at the component items.
    ContentRecord parent;
    parent.name = request.content;
    parent.type_name = request.type_name;
    parent.recording_in_progress = true;
    for (const Component& component : components) {
      parent.component_items.push_back(component.item_name);
    }
    plan.recordings.push_back(std::move(parent));
  }
  co_return co_await Launch(std::move(plan));
}

Co<Status> Coordinator::Launch(LaunchPlan plan) {
  TcpConn* conn = MsuConn(plan.msu);
  if (conn == nullptr) {
    // Up in the inherited ledger but not redialed since a takeover: wait in
    // the queue for its registration (or for the rejoin grace to expire).
    co_return ResourceExhaustedError("msu " + plan.msu + " has not reconnected");
  }
  // Reserve every hold *before* contacting the MSU: "As the Coordinator
  // assigns resources to clients, it keeps track of load by processor and
  // disk." Requests racing with this one must see the updated load, or they
  // would all be admitted against stale numbers. The transaction refunds
  // whatever is not committed below.
  std::vector<ResourceLedger::ReserveItem> items;
  for (const ActiveStream& hold : plan.streams) {
    items.push_back(ResourceLedger::ReserveItem{hold.disk, hold.rate, hold.space, hold.cache});
  }
  auto reservation = state_.ledger.Reserve(plan.msu, std::move(items));
  if (!reservation.ok()) {
    co_return reservation.status();
  }
  ResourceLedger::Txn txn = std::move(reservation).value();

  // Ids are minted once the holds are in place: the group (a shared delivery
  // group gets its own), then each stream followed by its shared members.
  if (plan.start.group == 0) {
    plan.start.group = next_group_++;
  }
  auto hold = plan.streams.begin();
  for (MsuStreamSpec& stream : plan.start.streams) {
    stream.stream = next_stream_++;
    hold->stream = stream.stream;
    (hold++)->group = plan.start.group;
    for (SharedMemberSpec& member : stream.shared_members) {
      member.stream = next_stream_++;
      (hold++)->stream = member.stream;
    }
  }
  plan.start.epoch = wire_epoch();
  const Result<Envelope> response = co_await conn->Call(MessageBody{plan.start});
  const auto* ack = response.ok() ? std::get_if<MsuStartGroupResponse>(&response->body) : nullptr;
  if (ack == nullptr || !ack->ok) {
    // The MSU started none of the group; the transaction refunds every hold.
    co_return InternalError("msu refused stream group: " +
                            (ack != nullptr ? ack->error : response.status().ToString()));
  }

  // The whole group runs: log it in one synchronous block, so no record of a
  // half-started group can ever reach the oplog.
  for (ContentRecord& record : plan.recordings) {
    (void)catalog_->AddContent(std::move(record));
  }
  for (ActiveStream& stream : plan.streams) {
    Replicate(ReplRecord{std::move(stream)}, &txn);
  }
  if (plan.shared.has_value()) {
    plan.shared->delivery_stream = plan.start.streams.front().stream;
    plan.shared->started_at = machine_->sim().Now();
    Replicate(ReplRecord{std::move(*plan.shared)});
  }
  // Remember what started each group so an MSU failure can re-place it.
  for (PendingRequest& request : plan.requests) {
    const GroupId group = request.group;
    Replicate(ReplRecord{ReplGroupStarted(group, std::move(request))});
  }
  co_return OkStatus();
}

Co<MessageBody> Coordinator::HandlePlay(TcpConn* conn, const PlayRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return MessageBody{PlayResponse{false, session.status().ToString(), 0, false}};
  }
  auto port = (*session)->ports.find(request.display_port);
  if (port == (*session)->ports.end()) {
    co_return MessageBody{
        PlayResponse{false, "no such display port: " + request.display_port, 0, false}};
  }
  PendingRequest pending;
  pending.session = request.session;
  pending.record = false;
  pending.content = request.content;
  pending.port = port->second;
  pending.group = next_group_++;
  pending.admission_class = request.admission_class;

  if (params_.rebalance.enabled && !params_.sharing.enabled) {
    // Sharing owns the popularity EWMA; with it off the rebalance planner
    // still needs the signal.
    BumpPopularity(pending.content);
  }

  if (SharingEligible(pending)) {
    BumpPopularity(pending.content);
    const SimTime admit_start = machine_->sim().Now();
    // A viewer arriving within the cache horizon of a live group's playback
    // position rides the serving MSU's interval cache: no disk bandwidth.
    const SharedGroup* target = FindAttachTarget(pending.content);
    if (target != nullptr) {
      const Status attached = co_await StartCacheAttach(pending, *target);
      if (attached.ok()) {
        RecordAdmission("attach", pending, attached, admit_start);
        co_return MessageBody{PlayResponse{true, "", pending.group, false}};
      }
      // Cache memory ran out (or the MSU died mid-attach): fall through and
      // coalesce into a batch like any other viewer.
    }
    // Coalesce with other requests for this title; the first waiter opens
    // the window and FlushShareBatch closes it after kShareBatchWindow. The
    // client's WaitForGroupReady tolerates the delay.
    const bool first = !state_.share_batches.contains(pending.content);
    Replicate(ReplRecord{ReplBatchJoined(pending)});
    if (first) {
      FlushShareBatch(pending.content);
    }
    trace_.Instant(trace_track_, metrics_prefix_, "share-batch",
                   pending.content + " group " + std::to_string(pending.group));
    co_return MessageBody{PlayResponse{true, "", pending.group, false}};
  }

  const SimTime admit_start = machine_->sim().Now();
  const Status started = co_await TryStartGroup(pending);
  if (started.code() == StatusCode::kResourceExhausted && !EnqueuePending(pending)) {
    // The class queue is full: reject-newest, explicitly, rather than
    // deepening a backlog that already exceeds what the deadline can clear.
    const Status rejected = UnavailableError("admission queue full");
    RecordAdmission("play", pending, rejected, admit_start);
    co_return MessageBody{PlayResponse{false, rejected.ToString(), 0, false}};
  }
  RecordAdmission("play", pending, started, admit_start);
  if (started.ok()) {
    co_return MessageBody{PlayResponse{true, "", pending.group, false}};
  }
  if (started.code() == StatusCode::kResourceExhausted) {
    // "If a client's request cannot be satisfied, the Coordinator queues the
    // request until an MSU with the necessary resources becomes available."
    co_return MessageBody{PlayResponse{true, "", pending.group, true}};
  }
  co_return MessageBody{PlayResponse{false, started.ToString(), 0, false}};
}

// ---- stream sharing (DESIGN §5.6) ----

bool Coordinator::SharingEligible(const PendingRequest& request) const {
  if (!params_.sharing.enabled || request.record) {
    return false;
  }
  // Only atomic, fully-recorded titles share a delivery stream; composites
  // and in-progress recordings take the historical path (and report their
  // errors through it).
  auto record = catalog_->FindContent(request.content);
  if (!record.ok()) {
    return false;
  }
  return !(*record)->is_composite() && !(*record)->recording_in_progress;
}

void Coordinator::BumpPopularity(const std::string& content) {
  const double ewma = DecayedPopularity(content) + 1.0;
  Popularity& popularity = popularity_[content];
  popularity.ewma = ewma;
  popularity.bumped = machine_->sim().Now();
}

double Coordinator::DecayedPopularity(const std::string& content) const {
  auto it = popularity_.find(content);
  if (it == popularity_.end()) {
    return 0.0;
  }
  double value = it->second.ewma;
  if (params_.sharing.popularity_halflife > SimTime()) {
    const double age = (machine_->sim().Now() - it->second.bumped).seconds() /
                       params_.sharing.popularity_halflife.seconds();
    value *= std::exp2(-age);
  }
  return value;
}

bool Coordinator::IsHot(const std::string& content) const {
  return DecayedPopularity(content) >= kHotThreshold;
}

const Coordinator::SharedGroup* Coordinator::FindAttachTarget(const std::string& content) const {
  const SimTime now = machine_->sim().Now();
  for (const auto& [id, group] : state_.shared_groups) {
    if (group.content != content || group.member_count <= 0 || !state_.ledger.IsUp(group.msu)) {
      continue;
    }
    if (now - group.started_at <= kCacheHorizon) {
      return &group;
    }
  }
  return nullptr;
}

Co<Status> Coordinator::StartCacheAttach(PendingRequest request, SharedGroup target) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return session.status();
  }
  auto record = catalog_->FindContent(request.content);
  if (!record.ok()) {
    co_return record.status();
  }
  auto type = catalog_->FindType((*record)->type_name);
  if (!type.ok()) {
    co_return type.status();
  }
  LaunchPlan plan;
  plan.msu = target.msu;
  plan.start.group = request.group;
  plan.start.client_control_port = request.port.control_port;
  MsuStreamSpec& stream = plan.start.streams.emplace_back();
  stream.file = target.file;
  stream.protocol = (*type)->protocol;
  stream.rate = target.rate;
  stream.disk_hint = target.disk;
  stream.client_node = request.port.node;
  stream.client_udp_port = request.port.udp_port;
  stream.fast_forward_file = (*record)->fast_forward_file;
  stream.fast_backward_file = (*record)->fast_backward_file;
  stream.from_cache = true;
  stream.pin_prefix = IsHot(request.content);
  // The interval cache must hold everything between this viewer (starting at
  // zero) and the leader's current position; charge that many bytes against
  // the MSU's cache budget, plus NIC bandwidth for the extra send. No disk
  // bandwidth: the reads come from memory.
  ActiveStream& hold = plan.streams.emplace_back();
  hold.msu = target.msu;
  hold.disk = ResourceLedger::kNoDisk;
  hold.content_item = request.content;
  hold.session = request.session;
  hold.rate = target.rate;
  hold.cache = target.rate.BytesIn(machine_->sim().Now() - target.started_at) + kDataPageSize;
  // The plain request is remembered: if the MSU dies this viewer fails over
  // as an ordinary unique stream (a fresh disk hold elsewhere).
  plan.requests.push_back(request);
  const Status attached = co_await Launch(std::move(plan));
  if (!attached.ok()) {
    co_return attached;  // the caller falls back to a batch
  }
  ++groups_attaches_;
  trace_.Instant(trace_track_, metrics_prefix_, "cache-attach",
                 request.content + " group " + std::to_string(request.group) + " on " +
                     target.msu);
  co_return OkStatus();
}

Task Coordinator::FlushShareBatch(std::string content) {
  co_await machine_->sim().Delay(kShareBatchWindow);
  if (crashed_ || !is_primary()) {
    co_return;  // the crash dropped the batch; a standby's shadow waits for takeover
  }
  auto it = state_.share_batches.find(content);
  if (it == state_.share_batches.end()) {
    co_return;
  }
  std::vector<PendingRequest> waiters = it->second;
  Replicate(ReplRecord{ReplBatchFlushed(content)});
  co_await StartSharedGroup(std::move(content), std::move(waiters));
}

Co<void> Coordinator::StartSharedGroup(std::string content,
                                       std::vector<PendingRequest> waiters) {
  // Every waiter's launch ends in one record: ReplGroupStarted, a push back
  // into the queue, or a pop for good.
  std::vector<PendingRequest> live;
  for (PendingRequest& request : waiters) {
    if (FindSession(request.session).ok()) {
      live.push_back(std::move(request));
    } else {
      DropRequest(std::move(request), UnavailableError("session closed"));
    }
  }
  if (live.empty()) {
    co_return;
  }

  const SimTime admit_start = machine_->sim().Now();
  auto session = FindSession(live.front().session);
  auto resolved = ResolveComponents(live.front(), **session);
  Result<PlacementSpec> spec = resolved.status();
  if (resolved.ok()) {
    spec = BuildPlacementSpec(live.front(), *resolved);
  }
  Result<Placement> placement = spec.status();
  if (spec.ok()) {
    placement = policy_->Place(*spec, state_.ledger);
  }
  Status started = placement.status();
  if (placement.ok()) {
    // One disk-bandwidth hold feeds the whole group; every member charges
    // NIC bandwidth only (kNoDisk) — that is the entire point of sharing.
    const Component& component = resolved->front();  // eligibility => exactly one
    LaunchPlan plan;
    plan.msu = placement->msu;
    MsuStreamSpec& stream = plan.start.streams.emplace_back();
    stream.file = !placement->files[0].empty() ? placement->files[0] : component.file_name;
    stream.protocol = (*catalog_->FindType(component.type_name))->protocol;
    stream.rate = spec->components[0].rate;
    stream.disk_hint = placement->disks[0];
    auto record = catalog_->FindContent(component.item_name);
    stream.fast_forward_file = (*record)->fast_forward_file;
    stream.fast_backward_file = (*record)->fast_backward_file;
    stream.pin_prefix = IsHot(content);
    // The delivery stream holds the disk bandwidth. Its group deliberately
    // has no state_.group_requests entry: if the MSU dies, MarkMsuDown releases
    // the hold and drops it silently while each member fails over on its own.
    ActiveStream delivery;
    delivery.msu = plan.msu;
    delivery.disk = placement->disks[0];
    delivery.content_item = component.item_name;
    delivery.rate = stream.rate;
    plan.streams.push_back(delivery);
    for (const PendingRequest& request : live) {
      SharedMemberSpec& member = stream.shared_members.emplace_back();
      member.group = request.group;
      member.client_node = request.port.node;
      member.client_udp_port = request.port.udp_port;
      member.client_control_port = request.port.control_port;
      ActiveStream& viewer = plan.streams.emplace_back(delivery);
      viewer.disk = ResourceLedger::kNoDisk;
      viewer.group = request.group;
      viewer.session = request.session;
    }
    SharedGroup& shared = plan.shared.emplace();
    shared.msu = plan.msu;
    shared.disk = placement->disks[0];
    shared.content = content;
    shared.file = stream.file;
    shared.rate = stream.rate;
    shared.member_count = static_cast<int>(live.size());
    plan.requests = live;
    started = co_await Launch(std::move(plan));
    if (started.code() == StatusCode::kResourceExhausted && MsuConn(placement->msu) == nullptr) {
      // Up in the inherited ledger but not redialed since a takeover: reopen
      // the batch for another window rather than split the group up.
      const bool reopen = !state_.share_batches.contains(content);
      for (const PendingRequest& request : live) {
        Replicate(ReplRecord{ReplBatchJoined(request)});
      }
      if (reopen) {
        FlushShareBatch(content);
      }
      co_return;
    }
  }
  if (!started.ok()) {
    // Degraded exit: with no room, or when the MSU refused the group, every
    // waiter queues and retries as a unique stream; other errors drop them.
    if (started.code() == StatusCode::kInternal) {
      started = ResourceExhaustedError(started.message());
    }
    for (PendingRequest& request : live) {
      RequeueOrDrop(std::move(request), started);
    }
    if (started.code() == StatusCode::kResourceExhausted) {
      RetryPendingQueue();
    }
    co_return;
  }
  for (const PendingRequest& request : live) {
    RecordAdmission("share", request, OkStatus(), admit_start);
  }
  ++groups_formed_;
  groups_members_ += static_cast<int64_t>(live.size());
  trace_.Span(trace_track_, metrics_prefix_, "share-group", admit_start,
              content + " x" + std::to_string(live.size()) + " on " + placement->msu);
}

Co<MessageBody> Coordinator::HandleSharedMemberSplit(const SharedMemberSplit& split) {
  const bool member_live = state_.active_streams.contains(split.member_stream);
  Replicate(ReplRecord{split});
  if (!member_live) {
    // Failover raced the split message, or this is the MSU's repeat of a
    // split a dead primary applied: the member was already re-placed, or its
    // parked re-admission was re-queued at takeover.
    co_return MessageBody{SimpleResponse{true, ""}};
  }
  ++groups_splits_;
  trace_.Instant(trace_track_, metrics_prefix_, "share-split",
                 "group " + std::to_string(split.group) + " off delivery " +
                     std::to_string(split.delivery_stream));
  // Re-admit the member as the solo stream the split record parked. FF/FB
  // split at the current offset and the client re-issues the scan against
  // its now-solo stream.
  auto parked = std::find_if(state_.repl_in_flight.begin(), state_.repl_in_flight.end(),
                             [&](const PendingRequest& r) { return r.group == split.group; });
  if (parked == state_.repl_in_flight.end()) {
    co_return MessageBody{SimpleResponse{true, ""}};
  }
  PendingRequest resume = *parked;
  const SimTime admit_start = machine_->sim().Now();
  const Status started = co_await TryStartGroup(resume);
  RecordAdmission("split", resume, started, admit_start);
  if (!started.ok()) {
    RequeueOrDrop(std::move(resume), started);
  }
  co_return MessageBody{SimpleResponse{true, ""}};
}

// ---- background rebalancing (DESIGN §5.8) ----

Task Coordinator::RebalanceLoop() {
  if (rebalance_loop_running_ || !params_.rebalance.enabled) {
    co_return;
  }
  rebalance_loop_running_ = true;
  while (!crashed_) {
    co_await machine_->sim().Delay(kRebalanceInterval);
    if (crashed_) {
      break;
    }
    if (!is_primary()) {
      continue;  // the standby mirrors in-flight ops but never plans
    }
    ++rebalance_ticks_;
    const int slots = kMaxConcurrentCopies - static_cast<int>(state_.repl_ops.size());
    RebalancePlan plan = PlanRebalance(BuildRebalanceSnapshot(), params_.rebalance, slots);
    for (const DemoteAction& demote : plan.demotes) {
      if (crashed_ || !is_primary()) {
        break;
      }
      co_await ExecuteDemotion(demote);
    }
    for (const CopyAction& copy : plan.copies) {
      if (crashed_ || !is_primary()) {
        break;
      }
      co_await StartReplication(copy);
    }
  }
  rebalance_loop_running_ = false;
}

RebalanceSnapshot Coordinator::BuildRebalanceSnapshot() const {
  RebalanceSnapshot snapshot;
  snapshot.disk_budget = params_.disk_budget;
  // While the shed governor is active, the plan may still demote cold
  // replicas (frees space for free) but must not start new copies.
  snapshot.allow_copies = !rebalance_paused_;
  for (const auto& [name, account] : state_.ledger.msus()) {
    MsuView view;
    view.node = name;
    view.up = account.up;
    view.nic_budget = account.nic_budget;
    view.nic_load = account.nic_load;
    view.free_space = account.free_space;
    for (const DiskAccount& disk : account.disks) {
      DiskView disk_view;
      disk_view.load = disk.load;
      view.disks.push_back(disk_view);
    }
    snapshot.msus.push_back(std::move(view));
  }
  // Titles in catalog (name) order, so the plan is a pure function of state.
  for (const ContentRecord* record : catalog_->ListContent()) {
    if (record->is_composite() || record->recording_in_progress || record->locations.empty()) {
      continue;
    }
    TitleView title;
    title.name = record->name;
    title.popularity = DecayedPopularity(record->name);
    for (const PendingRequest& request : state_.pending) {
      if (!request.record && request.content == record->name) {
        ++title.pending;
      }
    }
    auto type = catalog_->FindType(record->type_name);
    if (type.ok()) {
      title.size = (*type)->storage_rate.BytesIn(record->duration);
    }
    for (const ContentLocation& location : record->locations) {
      ReplicaView replica;
      replica.msu = location.msu_node;
      replica.disk = location.disk;
      replica.file = location.file_name.empty() ? record->file_name : location.file_name;
      replica.dynamic = location.dynamic;
      for (const auto& [id, active] : state_.active_streams) {
        if (active.content_item == record->name && active.msu == location.msu_node) {
          ++replica.active_streams;
        }
      }
      title.replicas.push_back(std::move(replica));
    }
    for (const auto& [op_id, op] : state_.repl_ops) {
      if (op.content == record->name) {
        title.inflight_targets.push_back(op.target_msu);
      }
    }
    snapshot.titles.push_back(std::move(title));
  }
  return snapshot;
}

Co<void> Coordinator::StartReplication(CopyAction action) {
  TcpConn* source = MsuConn(action.source_msu);
  if (source == nullptr || !state_.ledger.IsUp(action.source_msu)) {
    co_return;
  }
  const int64_t op_id = next_repl_op_++;
  const DataRate rate = params_.rebalance.copy_rate;

  // The source admits the copy against its duty cycle in PrepareCopy; a
  // refusal (every slot serving viewers) just skips this copy until a later
  // tick — background replication never displaces live work.
  MsuPrepareCopy prepare;
  prepare.op = op_id;
  prepare.file = action.source_file;
  prepare.rate = rate;
  prepare.epoch = wire_epoch();
  auto prepared = co_await source->Call(MessageBody{std::move(prepare)});
  const auto* prep =
      prepared.ok() ? std::get_if<MsuPrepareCopyResponse>(&prepared->body) : nullptr;
  if (prep == nullptr || !prep->ok) {
    co_return;
  }
  if (crashed_ || !is_primary()) {
    SendAbortCopy(action.source_msu, op_id);  // release the source's slot
    co_return;
  }

  ReplOp op;
  op.op = op_id;
  op.content = action.content;
  op.source_msu = action.source_msu;
  op.source_disk = prep->disk;
  op.source_file = action.source_file;
  op.target_msu = action.target_msu;
  op.target_disk = action.target_disk;
  op.replica_file = action.content + ".r" + std::to_string(op_id);
  op.rate = rate;
  op.space = prep->file_size.count() > 0 ? prep->file_size : action.space;

  MsuBeginCopy begin;
  begin.op = op_id;
  begin.content = op.content;
  begin.source_node = op.source_msu;
  begin.source_port = prep->pull_port;
  begin.source_file = op.source_file;
  begin.replica_file = op.replica_file;
  begin.rate = rate;
  begin.page_count = prep->page_count;
  begin.estimated_size = op.space;
  begin.disk_hint = op.target_disk;
  begin.epoch = wire_epoch();
  TcpConn* target = MsuConn(action.target_msu);
  Result<Envelope> began = UnavailableError("target msu went down");
  if (target != nullptr && state_.ledger.IsUp(action.target_msu)) {
    began = co_await target->Call(MessageBody{std::move(begin)});
  }
  const auto* ack = began.ok() ? std::get_if<SimpleResponse>(&began->body) : nullptr;
  if (crashed_ || !is_primary() || ack == nullptr || !ack->ok) {
    SendAbortCopy(action.source_msu, op_id);
    SendAbortCopy(action.target_msu, op_id);
    co_return;
  }

  // Both ends are running: account the copy's bandwidth (and the replica's
  // space) so placement routes live admissions around it, and replicate the
  // op so a standby takeover keeps the plan.
  Replicate(ReplRecord{op});
  ++rebalance_copies_started_;
  trace_.Instant(trace_track_, metrics_prefix_, "rebalance-copy",
                 op.content + " " + op.source_msu + " -> " + op.target_msu + " op " +
                     std::to_string(op_id));
}

Co<void> Coordinator::ExecuteDemotion(DemoteAction action) {
  auto record = catalog_->FindContent(action.content);
  if (!record.ok()) {
    co_return;
  }
  // Re-validate against live state (the plan came from a snapshot): the
  // replica must still be dynamic and idle.
  for (const auto& [id, active] : state_.active_streams) {
    if (active.content_item == action.content && active.msu == action.msu) {
      co_return;
    }
  }
  auto& locations = (*record)->locations;
  bool found = false;
  for (auto it = locations.begin(); it != locations.end(); ++it) {
    const std::string& copy_file =
        it->file_name.empty() ? (*record)->file_name : it->file_name;
    if (it->dynamic && it->msu_node == action.msu && copy_file == action.file) {
      locations.erase(it);  // catalog first: no new admission lands on it
      found = true;
      break;
    }
  }
  if (!found) {
    co_return;
  }
  ++rebalance_demotions_;
  trace_.Instant(trace_track_, metrics_prefix_, "rebalance-demote",
                 action.content + " off " + action.msu);
  SendDeleteFile(action.msu, action.file);
}

void Coordinator::HandleReplicaInstalled(const ReplicaInstalled& note) {
  auto record = catalog_->FindContent(note.content);
  if (state_.repl_ops.contains(note.op)) {
    // An unknown op holds nothing: its holds live and die with its entry. A
    // replica of a since-deleted title is orphaned, so its space comes back.
    Replicate(ReplRecord{ReplReplicationEnded(note.op, /*installed=*/record.ok())});
  }
  if (!record.ok()) {
    // The title was deleted while the copy ran; the fresh replica is orphaned.
    SendDeleteFile(note.msu_node, note.file);
    return;
  }
  // Install the copy (idempotent: a note resent over a fresh connection, or
  // one landing at a post-takeover primary, must not duplicate the location).
  bool already = false;
  for (const ContentLocation& location : (*record)->locations) {
    if (location.msu_node == note.msu_node && location.file_name == note.file) {
      already = true;
    }
  }
  if (!already) {
    ContentLocation location{note.msu_node, note.disk};
    location.file_name = note.file;
    location.dynamic = true;
    (*record)->locations.push_back(std::move(location));
  }
  ++rebalance_copies_installed_;
  trace_.Instant(trace_track_, metrics_prefix_, "rebalance-installed",
                 note.content + " on " + note.msu_node + " op " + std::to_string(note.op));
  // Queued requests — the flash crowd — can now land on the fresh replica.
  RetryPendingQueue();
}

void Coordinator::HandleReplicaCopyFailed(const ReplicaCopyFailed& note) {
  if (!state_.repl_ops.contains(note.op)) {
    return;  // already aborted, or an orphan of a previous incarnation
  }
  CALLIOPE_LOG(kInfo, "coord") << "replica copy op " << note.op << " failed on "
                               << note.msu_node << ": " << note.error;
  AbortReplication(note.op, note.error);
}

void Coordinator::AbortReplication(int64_t op_id, const std::string& reason) {
  auto it = state_.repl_ops.find(op_id);
  if (it == state_.repl_ops.end()) {
    return;
  }
  const ReplOp op = it->second;
  Replicate(ReplRecord{ReplReplicationEnded(op_id, /*installed=*/false)});
  ++rebalance_copies_aborted_;
  trace_.Instant(trace_track_, metrics_prefix_, "rebalance-abort",
                 op.content + " op " + std::to_string(op_id) + ": " + reason);
  SendAbortCopy(op.source_msu, op_id);
  SendAbortCopy(op.target_msu, op_id);
}

Task Coordinator::SendAbortCopy(std::string msu_node, int64_t op_id) {
  TcpConn* conn = MsuConn(msu_node);
  if (crashed_ || conn == nullptr || !state_.ledger.IsUp(msu_node)) {
    co_return;
  }
  MsuAbortCopy abort;
  abort.op = op_id;
  abort.epoch = wire_epoch();
  auto response = co_await conn->Call(MessageBody{std::move(abort)});
  (void)response;
}

Task Coordinator::SendDeleteFile(std::string msu_node, std::string file) {
  TcpConn* conn = MsuConn(msu_node);
  if (crashed_ || conn == nullptr || !state_.ledger.IsUp(msu_node)) {
    co_return;
  }
  MsuDeleteFile erase_file{std::move(file)};
  erase_file.epoch = wire_epoch();
  auto response = co_await conn->Call(MessageBody{std::move(erase_file)});
  (void)response;
}

void Coordinator::AbortReplicationsTouching(const std::string& msu_node) {
  std::vector<int64_t> doomed;
  for (const auto& [op_id, op] : state_.repl_ops) {
    if (op.source_msu == msu_node || op.target_msu == msu_node) {
      doomed.push_back(op_id);
    }
  }
  for (int64_t op_id : doomed) {
    AbortReplication(op_id, "msu " + msu_node + " went down");
  }
}

Co<MessageBody> Coordinator::HandleRecord(TcpConn* conn, const RecordRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return MessageBody{RecordResponse{false, session.status().ToString(), 0, false}};
  }
  auto port = (*session)->ports.find(request.display_port);
  if (port == (*session)->ports.end()) {
    co_return MessageBody{
        RecordResponse{false, "no such display port: " + request.display_port, 0, false}};
  }
  if (catalog_->FindContent(request.content_name).ok()) {
    co_return MessageBody{
        RecordResponse{false, "content exists: " + request.content_name, 0, false}};
  }
  if (request.estimated_length <= SimTime()) {
    // "the client request must also contain an estimate of the recording
    // length" — it sizes the disk reservation.
    co_return MessageBody{RecordResponse{false, "recording length estimate required", 0, false}};
  }
  PendingRequest pending;
  pending.session = request.session;
  pending.record = true;
  pending.content = request.content_name;
  pending.type_name = request.type_name;
  pending.estimated_length = request.estimated_length;
  pending.port = port->second;
  pending.group = next_group_++;
  pending.admission_class = request.admission_class;

  const SimTime admit_start = machine_->sim().Now();
  const Status started = co_await TryStartGroup(pending);
  if (started.code() == StatusCode::kResourceExhausted && !EnqueuePending(pending)) {
    const Status rejected = UnavailableError("admission queue full");
    RecordAdmission("record", pending, rejected, admit_start);
    co_return MessageBody{RecordResponse{false, rejected.ToString(), 0, false}};
  }
  RecordAdmission("record", pending, started, admit_start);
  if (started.ok()) {
    co_return MessageBody{RecordResponse{true, "", pending.group, false}};
  }
  if (started.code() == StatusCode::kResourceExhausted) {
    co_return MessageBody{RecordResponse{true, "", pending.group, true}};
  }
  co_return MessageBody{RecordResponse{false, started.ToString(), 0, false}};
}

Co<MessageBody> Coordinator::HandleDelete(TcpConn* conn, const DeleteContentRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return MessageBody{SimpleResponse{false, session.status().ToString()}};
  }
  if (!(*session)->admin) {
    co_return MessageBody{SimpleResponse{false, "delete requires administrative permission"}};
  }
  auto record = catalog_->FindContent(request.content);
  if (!record.ok()) {
    co_return MessageBody{SimpleResponse{false, record.status().ToString()}};
  }
  const bool composite = (*record)->is_composite();
  std::vector<std::string> items =
      composite ? (*record)->component_items : std::vector<std::string>{(*record)->name};
  for (const auto& [id, active] : state_.active_streams) {
    for (const auto& item : items) {
      if (active.content_item == item) {
        co_return MessageBody{SimpleResponse{false, "content is in use"}};
      }
    }
  }
  for (const std::string& item_name : items) {
    // Copies of the doomed title still in flight are pointless now.
    std::vector<int64_t> doomed;
    for (const auto& [op_id, op] : state_.repl_ops) {
      if (op.content == item_name) {
        doomed.push_back(op_id);
      }
    }
    for (int64_t op_id : doomed) {
      AbortReplication(op_id, "content deleted");
    }
    auto item = catalog_->FindContent(item_name);
    if (!item.ok()) {
      continue;
    }
    for (const ContentLocation& location : (*item)->locations) {
      TcpConn* msu_conn = MsuConn(location.msu_node);
      if (msu_conn == nullptr || !state_.ledger.IsUp(location.msu_node)) {
        continue;
      }
      for (const std::string& file :
           {(*item)->file_name, (*item)->fast_forward_file, (*item)->fast_backward_file}) {
        if (!file.empty()) {
          MsuDeleteFile erase_file{file};
          erase_file.epoch = wire_epoch();
          co_await msu_conn->Call(MessageBody{std::move(erase_file)});
        }
      }
    }
    (void)catalog_->RemoveContent(item_name);
  }
  if (composite) {
    (void)catalog_->RemoveContent(request.content);
  }
  RetryPendingQueue();
  co_return MessageBody{SimpleResponse{true, ""}};
}

Co<MessageBody> Coordinator::HandleLoadFastScan(TcpConn* conn,
                                                const LoadFastScanRequest& request) {
  auto session = FindSession(request.session);
  if (!session.ok()) {
    co_return MessageBody{SimpleResponse{false, session.status().ToString()}};
  }
  if (!(*session)->admin) {
    co_return MessageBody{SimpleResponse{false, "fast-scan load requires admin permission"}};
  }
  auto record = catalog_->FindContent(request.content);
  if (!record.ok()) {
    co_return MessageBody{SimpleResponse{false, record.status().ToString()}};
  }
  (*record)->fast_forward_file = request.fast_forward_file;
  (*record)->fast_backward_file = request.fast_backward_file;
  co_return MessageBody{SimpleResponse{true, ""}};
}

Co<MessageBody> Coordinator::HandleMsuRegister(TcpConn* conn, const MsuRegisterRequest& request) {
  // Warm registration: the MSU never stopped serving, only its control
  // connection moved (Coordinator failover) — keep the account and holds.
  const MsuAccount* known = state_.ledger.Find(request.msu_node);
  const bool warm =
      request.warm && known != nullptr && known->disk_count == request.disk_count;
  if (!warm && known != nullptr) {
    // Cold re-registration of a known MSU: whatever it was serving died with
    // it. Tear its groups down (failover) before resetting the account.
    bool busy = known->up;
    if (!busy) {
      for (const auto& [id, active] : state_.active_streams) {
        if (active.msu == request.msu_node) {
          busy = true;
          break;
        }
      }
    }
    if (busy) {
      MarkMsuDown(request.msu_node);
    }
  }
  ReplMsuUp up;
  up.node = request.msu_node;
  up.disk_count = request.disk_count;
  up.free_space = request.free_space;
  up.nic_budget = request.nic_bandwidth;
  up.cache_memory = request.cache_memory;
  up.reattach = warm;
  Replicate(ReplRecord{std::move(up)});
  msu_conns_[request.msu_node] = conn;
  MsuRegisterResponse ack{true, ""};
  ack.epoch = wire_epoch();
  if (params_.ha.enabled) {
    // Reconciliation sweep: streams the MSU still serves that we do not know
    // are admissions lost in the failover window — the MSU quits them. (A
    // single Coordinator without a standby keeps the historical behavior:
    // orphaned streams play out on their own.)
    for (StreamId id : request.active_streams) {
      if (!state_.active_streams.contains(id)) {
        ack.stale_streams.push_back(id);
      }
    }
  }
  // Per-disk ledger gauges; SetGaugeCallback overwrites on re-registration
  // so MSU restarts do not stack stale callbacks.
  const std::string prefix = metrics_prefix_ + ".ledger." + request.msu_node + ".";
  for (int d = 0; d < request.disk_count; ++d) {
    metrics_.SetGaugeCallback(prefix + "disk" + std::to_string(d) + ".reserved_kbps",
                              [this, node = request.msu_node, d] {
                                return state_.ledger.DiskLoad(node, d).bits_per_sec() / 1000;
                              });
  }
  metrics_.SetGaugeCallback(prefix + "free_mib", [this, node = request.msu_node] {
    return state_.ledger.FreeSpace(node).count() / (1024 * 1024);
  });
  trace_.Instant(trace_track_, metrics_prefix_, "msu-register",
                 request.msu_node + (warm ? " (warm)" : ""));
  RetryPendingQueue();
  co_return MessageBody{std::move(ack)};
}

void Coordinator::HandleStreamTerminated(const StreamTerminated& note) {
  auto it = state_.active_streams.find(note.stream);
  if (it == state_.active_streams.end()) {
    return;
  }
  const ActiveStream active = it->second;

  // Refund the stream's hold: bandwidth in full; for recordings, the space
  // over-estimate ("If the client overestimates the length of the recording,
  // the unused space will be returned to the system"). A recording the MSU
  // could not seal keeps no bytes; refund the whole estimate and drop its
  // catalog entry.
  const bool record_kept = active.recording && note.record_committed;
  Replicate(ReplRecord{ReplStreamEnded(note.stream, record_kept ? note.bytes_moved : Bytes())});
  if (record_kept) {
    auto record = catalog_->FindContent(active.content_item);
    if (record.ok()) {
      (*record)->recording_in_progress = false;
      (*record)->duration = note.recorded_duration;
    }
  } else if (active.recording) {
    (void)catalog_->RemoveContent(active.content_item);
  }

  auto group_it = state_.groups.find(active.group);
  if (group_it != state_.groups.end()) {
    if (group_it->second.empty()) {
      Replicate(ReplRecord{ReplGroupEnded(active.group)});
      if (active.recording) {
        // Composite parent becomes playable when all components are sealed.
        for (const ContentRecord* candidate : catalog_->ListContent()) {
          if (candidate->is_composite() &&
              std::find(candidate->component_items.begin(), candidate->component_items.end(),
                        active.content_item) != candidate->component_items.end()) {
            auto parent = catalog_->FindContent(candidate->name);
            if (parent.ok()) {
              (*parent)->recording_in_progress = false;
              SimTime longest;
              for (const std::string& item_name : (*parent)->component_items) {
                auto item = catalog_->FindContent(item_name);
                if (item.ok()) {
                  longest = std::max(longest, (*item)->duration);
                }
              }
              (*parent)->duration = longest;
            }
            break;
          }
        }
      }
    }
  }
  RetryPendingQueue();
}

void Coordinator::HandleProgressReport(const StreamProgressReport& report) {
  ReplProgress progress;
  for (const StreamProgressReport::Entry& entry : report.entries) {
    if (state_.active_streams.contains(entry.stream)) {
      progress.entries.push_back(ReplProgress::Entry{entry.stream, entry.media_offset});
    }
  }
  if (!progress.entries.empty()) {
    // The failover resume offsets, on the standby too.
    Replicate(ReplRecord{std::move(progress)});
  }
}

void Coordinator::MarkMsuDown(std::string node) {
  msu_conns_.erase(node);
  // Shared delivery groups on this MSU die with it; the cached pages and the
  // fan-out state lived in the dead process. Members keep their own
  // ActiveStream/state_.group_requests entries, so the loop below resumes each as a
  // unique stream; the delivery stream's group has no request and is dropped
  // silently once its hold is released.
  Replicate(ReplRecord{ReplMsuDown(node)});
  trace_.Instant(trace_track_, metrics_prefix_, "msu-down", node);

  // In-flight background copies reading from or writing to the dead MSU die
  // with it; the surviving end is told to stop and the holds are refunded.
  AbortReplicationsTouching(node);

  // Partition the failed MSU's streams by group (every member of a group
  // lives on one MSU, so a group is lost whole or not at all).
  std::map<GroupId, std::vector<StreamId>> lost;
  for (const auto& [id, active] : state_.active_streams) {
    if (active.msu == node) {
      lost[active.group].push_back(id);
    }
  }
  for (const auto& [group, members] : lost) {
    bool recording = false;
    PendingRequest resume;
    auto request_it = state_.group_requests.find(group);
    const bool have_request = request_it != state_.group_requests.end();
    if (have_request) {
      resume = request_it->second;
      resume.start_offsets.assign(members.size(), SimTime());
    }
    for (StreamId id : members) {
      const ActiveStream active = state_.active_streams.at(id);
      recording = recording || active.recording;
      if (have_request && static_cast<size_t>(active.component) < resume.start_offsets.size()) {
        resume.start_offsets[static_cast<size_t>(active.component)] = active.offset;
      }
      // Release the stream's hold exactly once: bandwidth in full, and for
      // recordings the *entire* space debit — a crash-interrupted recording
      // keeps no usable bytes (the MSU deletes the uncommitted file when it
      // restarts), so nothing stays charged against the account.
      Replicate(ReplRecord{ReplStreamEnded(id)});
      if (active.recording) {
        // The half-recorded item is unusable; drop it from the catalog.
        (void)catalog_->RemoveContent(active.content_item);
      }
    }
    Replicate(ReplRecord{ReplGroupEnded(group)});
    if (recording) {
      if (have_request && resume.record) {
        (void)catalog_->RemoveContent(resume.content);  // composite parent, if any
      }
      ++recordings_lost_;
      CALLIOPE_LOG(kWarning, "coord")
          << "MSU " << node << " failed; recording group " << group << " lost";
      if (have_request) {
        NotifyRequestFailed(resume, UnavailableError("MSU failed during recording"));
      }
      continue;
    }
    if (!have_request) {
      continue;
    }
    // Replica-aware failover (§2.2 fault tolerance, extended): re-run the
    // resolve→reserve→launch pipeline against the surviving MSUs holding a
    // copy, resuming near where each member was interrupted.
    FailoverGroup(std::move(resume));
  }
}

Task Coordinator::FailoverGroup(PendingRequest request) {
  const SimTime failover_start = machine_->sim().Now();
  // Let the failure event settle (broken conns, ledger state) before
  // re-placing the group.
  co_await machine_->sim().Yield();
  if (crashed_ || !is_primary()) {
    co_return;  // the coordinator died or was deposed since MarkMsuDown
  }
  if (!FindSession(request.session).ok()) {
    co_return;  // client went away; nobody is watching this group
  }
  const Status started = co_await TryStartGroup(request);
  const char* verdict = started.ok() ? "resumed"
                        : started.code() == StatusCode::kResourceExhausted ? "queued"
                                                                           : "failed";
  trace_.Span(trace_track_, metrics_prefix_, "failover", failover_start,
              "group " + std::to_string(request.group) + " " + verdict);
  if (started.ok()) {
    ++failover_groups_;
    CALLIOPE_LOG(kInfo, "coord") << "group " << request.group
                                 << " failed over to a surviving replica";
    co_return;
  }
  // No survivor holds a copy with bandwidth headroom right now: wait in the
  // pending queue like any other unsatisfiable request.
  RequeueOrDrop(std::move(request), started);
}

void Coordinator::RequeueOrDrop(PendingRequest request, Status outcome) {
  if (outcome.code() == StatusCode::kResourceExhausted) {
    if (EnqueuePending(request)) {
      return;
    }
    outcome = UnavailableError("admission queue full");
  }
  DropRequest(std::move(request), outcome);
}

void Coordinator::DropRequest(PendingRequest request, const Status& error) {
  CALLIOPE_LOG(kWarning, "coord") << "request for '" << request.content << "' (group "
                                  << request.group << ") dropped: " << error.ToString();
  Replicate(ReplRecord{ReplPendingPopped(request.group, /*retrying=*/false)});
  ++requests_lost_count_;
  NotifyRequestFailed(std::move(request), error);
}

Task Coordinator::NotifyRequestFailed(PendingRequest request, Status error) {
  auto bound = session_conns_.find(request.session);
  if (bound == session_conns_.end()) {
    co_return;
  }
  TcpConn* conn = bound->second;
  PendingRequestFailed failed{request.group, error.ToString()};
  failed.epoch = wire_epoch();
  Envelope envelope;
  envelope.body = MessageBody{std::move(failed)};
  const Status sent = co_await conn->Send(std::move(envelope));
  (void)sent;
}

Task Coordinator::RetryPendingQueue() {
  if (retry_scheduled_ || state_.pending.empty()) {
    co_return;
  }
  // Hold the guard for the whole pass: triggers landing mid-pass are covered
  // because the loop re-reads state_.pending, which may grow meanwhile.
  retry_scheduled_ = true;
  co_await machine_->sim().Yield();  // run after the triggering event settles
  if (params_.traffic.enabled) {
    // Interactive outranks standard outranks bulk when freed capacity is
    // handed out; stable within a class, so FIFO fairness survives.
    Replicate(ReplRecord{ReplPendingReordered()});
  }
  std::vector<PendingRequest> still_waiting;
  while (!state_.pending.empty()) {
    if (crashed_ || !is_primary()) {
      retry_scheduled_ = false;
      co_return;  // the queue is no longer ours to pop
    }
    PendingRequest request = state_.pending.front();
    if (!FindSession(request.session).ok()) {
      // The client went away while queued: the request is gone for good.
      DropRequest(std::move(request), UnavailableError("session closed"));
      continue;
    }
    Replicate(ReplRecord{ReplPendingPopped(request.group, /*retrying=*/true)});
    const SimTime admit_start = machine_->sim().Now();
    const Status started = co_await TryStartGroup(request);
    if (started.code() != StatusCode::kResourceExhausted) {
      // A still-exhausted retry stays queued and was already counted once.
      RecordAdmission("retry", request, started, admit_start);
    }
    if (started.code() == StatusCode::kResourceExhausted) {
      still_waiting.push_back(std::move(request));
    } else if (!started.ok()) {
      // Never drop a queued request silently: the client is told its group
      // is dead so it can stop waiting for a stream that will never arrive.
      DropRequest(std::move(request), started);
    }
  }
  // Re-queue this pass's failures behind anything newly queued. A re-queue
  // keeps its original enqueue stamp and never re-checks the class cap: the
  // request already holds its queue slot.
  for (PendingRequest& request : still_waiting) {
    (void)EnqueuePending(std::move(request), /*requeue=*/true);
  }
  ScheduleExpirySweep();  // cancels the armed sweep if the queue drained
  retry_scheduled_ = false;
}

// ---- pending-queue bounds, deadlines and shedding (DESIGN §5.9) ----

bool Coordinator::EnqueuePending(PendingRequest request, bool requeue) {
  if (!requeue && params_.traffic.enabled) {
    const int cap = QueueCapFor(request.admission_class);
    if (cap > 0 && pending_count_for(request.admission_class) >= static_cast<size_t>(cap)) {
      const size_t klass = static_cast<size_t>(request.admission_class);
      if (klass < kAdmissionClassCount) {
        ++class_shed_[klass];
      }
      trace_.Instant(trace_track_, metrics_prefix_, "queue-full",
                     std::string(AdmissionClassName(request.admission_class)) + " " +
                         request.content + " group " + std::to_string(request.group));
      return false;
    }
  }
  if (request.enqueued_at == SimTime()) {
    request.enqueued_at = machine_->sim().Now();
  }
  Replicate(ReplRecord{ReplPendingPushed(std::move(request))});
  ScheduleExpirySweep();
  return true;
}

SimTime Coordinator::QueueDeadlineFor(AdmissionClass klass) const {
  if (params_.traffic.enabled) {
    SimTime deadline;
    switch (klass) {
      case AdmissionClass::kInteractive:
        deadline = params_.traffic.interactive_deadline;
        break;
      case AdmissionClass::kStandard:
        deadline = params_.traffic.standard_deadline;
        break;
      case AdmissionClass::kBulk:
        deadline = params_.traffic.bulk_deadline;
        break;
    }
    if (deadline > SimTime()) {
      return deadline;
    }
  }
  return params_.pending_deadline;
}

int Coordinator::QueueCapFor(AdmissionClass klass) const {
  switch (klass) {
    case AdmissionClass::kInteractive:
      return kInteractiveQueueCap;
    case AdmissionClass::kStandard:
      return kStandardQueueCap;
    case AdmissionClass::kBulk:
      return params_.traffic.bulk_queue_cap;
  }
  return 0;
}

size_t Coordinator::pending_count_for(AdmissionClass klass) const {
  size_t count = 0;
  for (const PendingRequest& request : state_.pending) {
    if (request.admission_class == klass) {
      ++count;
    }
  }
  return count;
}

void Coordinator::ScheduleExpirySweep() {
  SimTime earliest;
  bool any = false;
  for (const PendingRequest& request : state_.pending) {
    const SimTime deadline = QueueDeadlineFor(request.admission_class);
    if (request.enqueued_at == SimTime() || !(deadline > SimTime())) {
      continue;  // no stamp (replicated legacy state) or deadline disabled
    }
    const SimTime expires = request.enqueued_at + deadline;
    if (!any || expires < earliest) {
      earliest = expires;
      any = true;
    }
  }
  if (!any) {
    expiry_token_.Cancel();
    expiry_armed_at_ = SimTime();
    return;
  }
  const SimTime fire_at = std::max(earliest, machine_->sim().Now());
  if (expiry_armed_at_ != SimTime() && expiry_armed_at_ <= fire_at) {
    return;  // an armed sweep already fires no later than needed
  }
  expiry_token_.Cancel();
  expiry_armed_at_ = fire_at;
  expiry_token_ = machine_->sim().ScheduleCancelableAt(fire_at, [this] { RunExpirySweep(); });
}

void Coordinator::RunExpirySweep() {
  expiry_armed_at_ = SimTime();
  if (crashed_ || !is_primary()) {
    return;  // re-armed on restart/takeover
  }
  const SimTime now = machine_->sim().Now();
  std::vector<PendingRequest> expired;
  for (const PendingRequest& request : state_.pending) {
    const SimTime deadline = QueueDeadlineFor(request.admission_class);
    if (request.enqueued_at != SimTime() && deadline > SimTime() &&
        now >= request.enqueued_at + deadline) {
      expired.push_back(request);
    }
  }
  for (PendingRequest& request : expired) {
    ++requests_expired_count_;
    const size_t klass = static_cast<size_t>(request.admission_class);
    if (klass < kAdmissionClassCount) {
      ++class_expired_[klass];
    }
    trace_.Instant(trace_track_, metrics_prefix_, "pending-expired",
                   request.content + " group " + std::to_string(request.group));
    DropRequest(std::move(request), DeadlineExceededError("queued past deadline"));
  }
  ScheduleExpirySweep();
}

Task Coordinator::ShedGovernorLoop() {
  if (governor_loop_running_ || !params_.traffic.enabled) {
    co_return;
  }
  governor_loop_running_ = true;
  while (!crashed_) {
    co_await machine_->sim().Delay(kGovernorInterval);
    if (crashed_) {
      break;
    }
    if (!is_primary()) {
      continue;  // only the primary owns the queue
    }
    const bool overloaded = overload_probe_ != nullptr && overload_probe_();
    if (!overloaded) {
      if (shed_active_) {
        shed_active_ = false;
        rebalance_paused_ = false;
        trace_.Instant(trace_track_, metrics_prefix_, "shed-clear");
      }
      continue;
    }
    if (!shed_active_) {
      shed_active_ = true;
      ++shed_episodes_;
      trace_.Instant(trace_track_, metrics_prefix_, "shed-start");
    }
    // Bulk replication is the first casualty: pause the planner and abort
    // in-flight copies so their disk and NIC bandwidth serves viewers.
    if (params_.rebalance.enabled && !rebalance_paused_) {
      rebalance_paused_ = true;
      ++shed_rebalance_paused_;
      std::vector<int64_t> inflight;
      for (const auto& [op_id, op] : state_.repl_ops) {
        inflight.push_back(op_id);
      }
      for (int64_t op_id : inflight) {
        AbortReplication(op_id, "load shedding");
      }
      if (!inflight.empty()) {
        continue;  // see whether the freed bandwidth clears the breach first
      }
    }
    // Shed queued requests newest-first, bulk before standard; interactive
    // traffic is never shed.
    int budget = kShedPerTick;
    for (AdmissionClass klass : {AdmissionClass::kBulk, AdmissionClass::kStandard}) {
      while (budget > 0) {
        auto victim = state_.pending.end();
        for (auto it = state_.pending.begin(); it != state_.pending.end(); ++it) {
          if (it->admission_class == klass) {
            victim = it;  // the last match is the newest arrival
          }
        }
        if (victim == state_.pending.end()) {
          break;
        }
        // Parked like a retry while ShedRequest tries the cache attach.
        PendingRequest request = *victim;
        Replicate(ReplRecord{ReplPendingPopped(request.group, /*retrying=*/true)});
        --budget;
        co_await ShedRequest(std::move(request));
        if (crashed_ || !is_primary()) {
          break;
        }
      }
    }
    ScheduleExpirySweep();
  }
  governor_loop_running_ = false;
}

Co<void> Coordinator::ShedRequest(PendingRequest request) {
  if (SharingEligible(request)) {
    // Graceful degradation: a viewer within a live group's cache horizon can
    // ride the interval cache with no disk reservation at all.
    const SharedGroup* target = FindAttachTarget(request.content);
    if (target != nullptr) {
      const Status attached = co_await StartCacheAttach(request, *target);
      if (attached.ok()) {
        ++shed_degraded_;
        trace_.Instant(trace_track_, metrics_prefix_, "shed-degrade",
                       request.content + " group " + std::to_string(request.group));
        co_return;
      }
    }
  }
  const size_t klass = static_cast<size_t>(request.admission_class);
  if (klass < kAdmissionClassCount) {
    ++class_shed_[klass];
  }
  ++shed_rejected_;
  trace_.Instant(trace_track_, metrics_prefix_, "shed",
                 std::string(AdmissionClassName(request.admission_class)) + " " +
                     request.content + " group " + std::to_string(request.group));
  DropRequest(std::move(request), UnavailableError("shed under overload"));
}

bool Coordinator::MsuUp(const std::string& node) const { return state_.ledger.IsUp(node); }

TcpConn* Coordinator::MsuConn(const std::string& node) const {
  auto it = msu_conns_.find(node);
  return it == msu_conns_.end() ? nullptr : it->second;
}

DataRate Coordinator::DiskLoad(const std::string& msu, int disk) const {
  return state_.ledger.DiskLoad(msu, disk);
}

Bytes Coordinator::MsuFreeSpace(const std::string& msu) const {
  return state_.ledger.FreeSpace(msu);
}

}  // namespace calliope
