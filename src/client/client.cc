#include "src/client/client.h"

#include <algorithm>
#include <utility>

#include "src/msu/msu.h"  // MediaDatagramPayload
#include "src/obs/sampler.h"
#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace calliope {

CalliopeClient::CalliopeClient(NetNode& node, std::string coordinator_node, int coordinator_port)
    : node_(&node),
      coordinator_node_(std::move(coordinator_node)),
      coordinator_port_(coordinator_port),
      group_events_(std::make_unique<Condition>(node.machine().sim())) {
  // One listener accepts the VCR control connections MSUs open back to us.
  control_listen_port_ = node_->AllocateEphemeralPort();
  (void)node_->ListenTcp(control_listen_port_, [this](TcpConn* conn) { OnControlAccept(conn); });
}

void CalliopeClient::WireSessionConn() {
  // The Coordinator pushes PendingRequestFailed over the session connection
  // when a queued or migrating group can never be (re)started.
  conn_->set_receive_handler([this](TcpConn*, const Envelope& envelope) {
    if (const auto* failed = std::get_if<PendingRequestFailed>(&envelope.body)) {
      if (failed->epoch > 0 && failed->epoch < coordinator_epoch_) {
        // A deposed primary draining its queue; the current primary still
        // owns this request.
        return;
      }
      GroupState& group = GroupFor(failed->group);
      group.terminated = true;
      group.failure_reason = failed->error;
      group_events_->NotifyAll();
    }
  });
  conn_->set_close_handler([this](TcpConn* closed) {
    if (conn_ == closed) {
      conn_ = nullptr;
    }
    // With a coordinator pair configured, a broken session means the primary
    // died: redial the pair and resume on the survivor. With a single host
    // the legacy behavior stands — the session is simply gone.
    if (coordinator_hosts_.size() > 1 && session_ != 0) {
      RedialLoop();
    }
  });
}

Co<Status> CalliopeClient::Connect(std::string customer, std::string credential) {
  customer_ = customer;
  credential_ = credential;
  auto conn = co_await node_->ConnectTcp(coordinator_node_, coordinator_port_);
  if (!conn.ok()) {
    co_return conn.status();
  }
  conn_ = *conn;
  WireSessionConn();
  auto response = co_await conn_->Call(MessageBody{OpenSessionRequest{customer, credential}});
  if (!response.ok()) {
    co_return response.status();
  }
  const auto* open = std::get_if<OpenSessionResponse>(&response->body);
  if (open == nullptr) {
    co_return InternalError("bad response to OpenSession");
  }
  if (!open->ok) {
    co_return PermissionDeniedError(open->error);
  }
  session_ = open->session;
  coordinator_epoch_ = std::max(coordinator_epoch_, open->epoch);
  co_return OkStatus();
}

void CalliopeClient::Disconnect() {
  session_ = 0;  // cleared first so the close handler does not redial
  if (conn_ != nullptr) {
    TcpConn* conn = conn_;
    conn_ = nullptr;
    conn->Close();
  }
}

Task CalliopeClient::RedialLoop() {
  if (redialing_) {
    co_return;
  }
  redialing_ = true;
  const SessionId old_session = session_;
  BackoffParams backoff_params;
  backoff_params.initial = SimTime::Millis(200);
  backoff_params.max = SimTime::Seconds(2);
  Backoff backoff(backoff_params, std::hash<std::string>{}(node_->name()) ^ 0x27d4eb2fULL);
  while (session_ == old_session) {
    {
      const SimTime delay = backoff.Next();
      co_await sim().Delay(delay);
    }
    if (conn_ != nullptr && !conn_->closed()) {
      break;  // something else already re-established the session
    }
    const std::string host =
        coordinator_hosts_[host_index_ % coordinator_hosts_.size()];
    ++host_index_;
    auto conn = co_await node_->ConnectTcp(host, coordinator_port_);
    if (!conn.ok()) {
      continue;
    }
    TcpConn* candidate = std::move(conn).value();
    OpenSessionRequest request;
    request.customer = customer_;
    request.credential = credential_;
    request.resume_session = old_session;
    auto response = co_await candidate->Call(MessageBody{std::move(request)});
    if (!response.ok()) {
      continue;  // connection died mid-call; the host may be rebooting
    }
    const auto* open = std::get_if<OpenSessionResponse>(&response->body);
    if (open == nullptr || !open->ok) {
      // A standby answers "not primary" (a SimpleResponse): try the other.
      if (!candidate->closed()) {
        candidate->Close();
      }
      continue;
    }
    conn_ = candidate;
    WireSessionConn();
    coordinator_epoch_ = std::max(coordinator_epoch_, open->epoch);
    const bool resumed = open->session == old_session;
    session_ = open->session;
    if (!resumed) {
      // Fresh session (the pair lost our registration entirely): display
      // ports must be registered again under the new session id.
      co_await ReRegisterPorts();
    }
    break;
  }
  redialing_ = false;
}

Co<void> CalliopeClient::ReRegisterPorts() {
  // Atomic ports first: composites reference them by name.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& [name, port] : ports_) {
      const bool atomic = port->component_ports_.empty();
      if (atomic != (pass == 0)) {
        continue;
      }
      if (conn_ == nullptr || conn_->closed()) {
        co_return;
      }
      RegisterPortRequest request;
      request.session = session_;
      request.port_name = name;
      request.type_name = port->type_name_;
      request.node = node_->name();
      request.udp_port = port->udp_port_;
      request.control_port = control_listen_port_;
      request.component_ports = port->component_ports_;
      auto response = co_await conn_->Call(MessageBody{std::move(request)});
      if (!response.ok()) {
        co_return;  // conn broke again; the close handler redials
      }
    }
  }
}

Co<Result<std::vector<ContentInfo>>> CalliopeClient::ListContent() {
  using Out = Result<std::vector<ContentInfo>>;
  if (!connected()) {
    co_return Out(FailedPreconditionError("not connected"));
  }
  auto response = co_await conn_->Call(MessageBody{ListContentRequest{session_}});
  if (!response.ok()) {
    co_return Out(response.status());
  }
  const auto* list = std::get_if<ListContentResponse>(&response->body);
  if (list == nullptr) {
    co_return Out(InternalError("bad response to ListContent"));
  }
  if (!list->ok) {
    co_return Out(InternalError(list->error));
  }
  co_return Out(list->items);
}

Co<Result<ClientDisplayPort*>> CalliopeClient::RegisterPort(std::string name,
                                                            std::string type_name) {
  return RegisterCompositePort(std::move(name), std::move(type_name), {});
}

Co<Result<ClientDisplayPort*>> CalliopeClient::RegisterCompositePort(
    std::string name, std::string type_name, std::vector<std::string> component_ports) {
  using Out = Result<ClientDisplayPort*>;
  if (!connected()) {
    co_return Out(FailedPreconditionError("not connected"));
  }
  if (ports_.contains(name)) {
    co_return Out(AlreadyExistsError("port exists: " + name));
  }
  auto port = std::make_unique<ClientDisplayPort>();
  port->name_ = name;
  port->type_name_ = type_name;
  port->component_ports_ = component_ports;
  if (component_ports.empty()) {
    // Atomic port: bind a data socket and the adjacent control socket
    // (protocols like RTP use data + control port pairs).
    port->udp_port_ = node_->AllocateEphemeralPort();
    node_->AllocateEphemeralPort();  // reserve udp_port + 1 for control
    ClientDisplayPort* raw = port.get();
    if (Status bound = node_->BindUdp(
            raw->udp_port_, [this, raw](const Datagram& d) { OnMediaDatagram(*raw, d); });
        !bound.ok()) {
      co_return Out(bound);
    }
    if (Status bound = node_->BindUdp(
            raw->udp_port_ + 1, [this, raw](const Datagram& d) { OnMediaDatagram(*raw, d); });
        !bound.ok()) {
      co_return Out(bound);
    }
  }

  RegisterPortRequest request;
  request.session = session_;
  request.port_name = name;
  request.type_name = type_name;
  request.node = node_->name();
  request.udp_port = port->udp_port_;
  request.control_port = control_listen_port_;
  request.component_ports = component_ports;
  auto response = co_await conn_->Call(MessageBody{std::move(request)});
  if (!response.ok()) {
    co_return Out(response.status());
  }
  const auto* ack = std::get_if<SimpleResponse>(&response->body);
  if (ack == nullptr || !ack->ok) {
    co_return Out(InvalidArgumentError(ack != nullptr ? ack->error : "bad response"));
  }
  ClientDisplayPort* raw = port.get();
  ports_[name] = std::move(port);
  co_return Out(raw);
}

Co<Status> CalliopeClient::UnregisterPort(std::string name) {
  if (!connected()) {
    co_return FailedPreconditionError("not connected");
  }
  auto it = ports_.find(name);
  if (it == ports_.end()) {
    co_return NotFoundError("no such port: " + name);
  }
  auto response =
      co_await conn_->Call(MessageBody{UnregisterPortRequest{session_, name}});
  if (!response.ok()) {
    co_return response.status();
  }
  if (it->second->udp_port_ != 0) {
    (void)node_->CloseUdp(it->second->udp_port_);
    (void)node_->CloseUdp(it->second->udp_port_ + 1);
  }
  ports_.erase(it);
  co_return OkStatus();
}

ClientDisplayPort* CalliopeClient::FindPort(const std::string& name) {
  auto it = ports_.find(name);
  return it == ports_.end() ? nullptr : it->second.get();
}

void CalliopeClient::ForEachPort(const std::function<void(const ClientDisplayPort&)>& fn) const {
  for (const auto& [name, port] : ports_) {
    fn(*port);
  }
}

void CalliopeClient::OnMediaDatagram(ClientDisplayPort& port, const Datagram& datagram) {
  auto payload = std::static_pointer_cast<const MediaDatagramPayload>(datagram.payload);
  if (payload == nullptr) {
    return;
  }
  if (payload->flow_count > 0) {
    OnFlowChunk(port, *payload);
    return;
  }
  auto [seq_it, first_from_stream] = port.last_seq_.try_emplace(payload->stream, -1);
  if (!first_from_stream && payload->seq <= seq_it->second) {
    ++port.out_of_order_;
  }
  seq_it->second = std::max(seq_it->second, payload->seq);
  if (payload->is_control) {
    ++port.control_packets_received_;
    port.bytes_received_ += payload->packet.size;
    return;
  }
  RecordArrival(port, sim().Now(), payload->deadline, payload->packet.delivery_offset,
                payload->packet.size);
}

void CalliopeClient::OnFlowChunk(ClientDisplayPort& port, const MediaDatagramPayload& payload) {
  // One aggregate datagram standing in for `flow_count` packets of a
  // steady-state stream. Each record "arrives" at the coarse tick of its
  // deadline (when the MSU's per-packet loop would have sent it) plus the
  // chunk's measured network transit, so the port's histograms and gap/glitch
  // counters match what packet fidelity would have recorded.
  const SimTime transit = sim().Now() - payload.flow_sent_at;
  auto [seq_it, inserted] = port.last_seq_.try_emplace(payload.stream, -1);
  bool first_from_stream = inserted;
  CoarseTimer& timer = node_->machine().timer();
  int64_t seq = payload.seq;
  for (const auto& record : payload.flow_records) {
    if (!first_from_stream && seq <= seq_it->second) {
      ++port.out_of_order_;
    }
    first_from_stream = false;
    seq_it->second = std::max(seq_it->second, seq);
    ++seq;
    RecordArrival(port, timer.NextTickAtOrAfter(record.deadline) + transit, record.deadline,
                  record.delivery_offset, record.size);
  }
}

void CalliopeClient::RecordArrival(ClientDisplayPort& port, SimTime arrival, SimTime deadline,
                                   SimTime delivery_offset, Bytes size) {
  if (port.first_arrival_ == SimTime()) {
    port.first_arrival_ = arrival;
  }
  if (port.last_arrival_ != SimTime()) {
    const SimTime gap = arrival - port.last_arrival_;
    port.max_arrival_gap_ = std::max(port.max_arrival_gap_, gap);
    if (qos_ != nullptr) {
      qos_->RecordGap(gap);
    }
  }
  port.last_arrival_ = arrival;
  ++port.packets_received_;
  const SimTime lateness = arrival - deadline;
  port.arrival_lateness_.Record(lateness);
  if (lateness > port.buffer_allowance_) {
    ++port.glitches_;
  }
  if (port.playout_.has_value()) {
    // A backwards jump in media time is a seek/rewind: new playout epoch.
    if (delivery_offset + SimTime::Seconds(1) < port.last_media_offset_) {
      port.playout_->Reset();
    }
    port.last_media_offset_ = delivery_offset;
    port.playout_->OnArrival(arrival, delivery_offset, size);
  }
  port.bytes_received_ += size;
}

void CalliopeClient::OnControlAccept(TcpConn* conn) {
  conn->set_receive_handler([this, conn](TcpConn*, const Envelope& envelope) {
    if (const auto* info = std::get_if<StreamGroupInfo>(&envelope.body)) {
      GroupState& group = GroupFor(info->group);
      group.control_conn = conn;
      group.info = *info;
      group.info_received = true;
      // A fresh control connection for a known group means the stream migrated
      // to another MSU after a failure; the old conn's close no longer counts.
      group.terminated = false;
      group_events_->NotifyAll();
    }
  });
  conn->set_close_handler([this](TcpConn* closed) {
    for (auto& [id, group] : groups_) {
      if (group.control_conn == closed) {
        group.terminated = true;
      }
    }
    group_events_->NotifyAll();
  });
}

CalliopeClient::GroupState& CalliopeClient::GroupFor(GroupId group) {
  GroupState& state = groups_[group];
  state.group = group;
  return state;
}

Co<Result<CalliopeClient::StartResult>> CalliopeClient::Play(std::string content,
                                                             std::string port_name,
                                                             AdmissionClass klass) {
  using Out = Result<StartResult>;
  if (!connected()) {
    co_return Out(FailedPreconditionError("not connected"));
  }
  PlayRequest play_request{session_, content, port_name};
  play_request.admission_class = klass;
  auto response = co_await conn_->Call(MessageBody{std::move(play_request)});
  if (!response.ok()) {
    co_return Out(response.status());
  }
  const auto* play = std::get_if<PlayResponse>(&response->body);
  if (play == nullptr) {
    co_return Out(InternalError("bad response to Play"));
  }
  if (!play->ok) {
    co_return Out(InvalidArgumentError(play->error));
  }
  GroupFor(play->group);
  co_return Out(StartResult{play->group, play->queued});
}

Co<Result<CalliopeClient::StartResult>> CalliopeClient::Record(std::string content_name,
                                                               std::string type_name,
                                                               std::string port_name,
                                                               SimTime estimated_length,
                                                               AdmissionClass klass) {
  using Out = Result<StartResult>;
  if (!connected()) {
    co_return Out(FailedPreconditionError("not connected"));
  }
  RecordRequest record_request{session_, content_name, type_name, port_name, estimated_length};
  record_request.admission_class = klass;
  auto response = co_await conn_->Call(MessageBody{std::move(record_request)});
  if (!response.ok()) {
    co_return Out(response.status());
  }
  const auto* record = std::get_if<RecordResponse>(&response->body);
  if (record == nullptr) {
    co_return Out(InternalError("bad response to Record"));
  }
  if (!record->ok) {
    co_return Out(InvalidArgumentError(record->error));
  }
  GroupFor(record->group);
  co_return Out(StartResult{record->group, record->queued});
}

Co<Status> CalliopeClient::DeleteContent(std::string content) {
  if (!connected()) {
    co_return FailedPreconditionError("not connected");
  }
  auto response =
      co_await conn_->Call(MessageBody{DeleteContentRequest{session_, content}});
  if (!response.ok()) {
    co_return response.status();
  }
  const auto* ack = std::get_if<SimpleResponse>(&response->body);
  if (ack == nullptr || !ack->ok) {
    co_return InvalidArgumentError(ack != nullptr ? ack->error : "bad response");
  }
  co_return OkStatus();
}

Co<Status> CalliopeClient::LoadFastScan(std::string content, std::string ff_file,
                                        std::string fb_file) {
  if (!connected()) {
    co_return FailedPreconditionError("not connected");
  }
  auto response = co_await conn_->Call(
      MessageBody{LoadFastScanRequest{session_, content, ff_file, fb_file}});
  if (!response.ok()) {
    co_return response.status();
  }
  const auto* ack = std::get_if<SimpleResponse>(&response->body);
  if (ack == nullptr || !ack->ok) {
    co_return InvalidArgumentError(ack != nullptr ? ack->error : "bad response");
  }
  co_return OkStatus();
}

Co<Status> CalliopeClient::WaitForGroupReady(GroupId group, SimTime timeout) {
  const SimTime deadline = sim().Now() + timeout;
  GroupState& state = GroupFor(group);
  while (!state.info_received && !state.terminated) {
    if (sim().Now() >= deadline) {
      co_return DeadlineExceededError("group never became ready");
    }
    // Wake on group events or every 100 ms to re-check the deadline.
    EventToken tick = sim().ScheduleCancelableAt(sim().Now() + SimTime::Millis(100),
                                                 [this] { group_events_->NotifyAll(); });
    co_await group_events_->Wait();
    tick.Cancel();
  }
  if (state.terminated && !state.info_received) {
    co_return UnavailableError("group terminated before becoming ready");
  }
  co_return OkStatus();
}

bool CalliopeClient::GroupTerminated(GroupId group) const {
  auto it = groups_.find(group);
  return it != groups_.end() && it->second.terminated;
}

std::string CalliopeClient::GroupFailure(GroupId group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.failure_reason : std::string();
}

Co<Status> CalliopeClient::Vcr(GroupId group, VcrCommand::Op op, SimTime seek_to) {
  CALLIOPE_CO_RETURN_IF_ERROR(co_await WaitForGroupReady(group));
  GroupState& state = GroupFor(group);
  if (state.control_conn == nullptr || state.control_conn->closed()) {
    co_return UnavailableError("group control connection closed");
  }
  VcrCommand command;
  command.op = op;
  command.group = group;
  command.seek_to = seek_to;
  auto response = co_await state.control_conn->Call(MessageBody{command});
  if (!response.ok()) {
    co_return response.status();
  }
  const auto* ack = std::get_if<VcrAck>(&response->body);
  if (ack == nullptr) {
    co_return InternalError("bad response to VCR command");
  }
  if (!ack->ok) {
    co_return FailedPreconditionError(ack->error);
  }
  co_return OkStatus();
}

Co<Result<int64_t>> CalliopeClient::SendRecording(GroupId group, int component_index,
                                                  const PacketSequence& packets) {
  using Out = Result<int64_t>;
  CALLIOPE_CO_RETURN_IF_ERROR(co_await WaitForGroupReady(group));
  GroupState& state = GroupFor(group);
  StreamId stream = 0;
  bool found = false;
  for (const auto& member : state.info.members) {
    if (member.component_index == component_index) {
      stream = member.stream;
      found = true;
      break;
    }
  }
  if (!found) {
    co_return Out(NotFoundError("no group member with index " +
                                std::to_string(component_index)));
  }
  const std::string msu_node = state.info.msu_node;
  const int media_port = state.info.media_udp_port;
  const SimTime start = sim().Now();
  int64_t sent = 0;
  for (const MediaPacket& packet : packets) {
    if (state.terminated) {
      break;
    }
    const SimTime when = start + packet.delivery_offset;
    if (when > sim().Now()) {
      co_await sim().Delay(when - sim().Now());
    }
    auto payload = std::make_shared<MediaDatagramPayload>();
    payload->stream = stream;
    payload->seq = sent;
    payload->deadline = when;
    payload->packet = packet;
    co_await node_->SendUdp(msu_node, media_port, packet.size, std::move(payload));
    ++sent;
  }
  co_return Out(sent);
}

}  // namespace calliope
