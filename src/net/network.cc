#include "src/net/network.h"

#include <cassert>
#include <utility>

#include "src/util/logging.h"

namespace calliope {

namespace {
constexpr Bytes kUdpIpHeader = Bytes(28);
// Seed of the media-datagram loss/jitter draws.
constexpr uint64_t kFaultSeed = 97;
}  // namespace

// ---------------------------------------------------------------- TcpConn

TcpConn::TcpConn(Network* network, uint64_t conn_id, std::string local_node, int local_port,
                 std::string peer_node, int peer_port)
    : network_(network),
      conn_id_(conn_id),
      local_node_(std::move(local_node)),
      local_port_(local_port),
      peer_node_(std::move(peer_node)),
      peer_port_(peer_port) {}

TcpConn::~TcpConn() {
  // A Call still parked at teardown holds its PendingCall, whose Condition
  // holds the Call's frame: a cycle nothing else frees. Destroying the parked
  // frames (and, through them, their callers) breaks it.
  for (auto& [id, pending] : pending_calls_) {
    pending->cond.DestroyWaiters();
  }
}

Co<Status> TcpConn::Send(Envelope envelope) {
  return SendInternal(std::move(envelope), /*fin=*/false);
}

Co<Status> TcpConn::SendInternal(Envelope envelope, bool fin) {
  Envelope local = std::move(envelope);
  if (state_ != State::kOpen) {
    co_return UnavailableError("connection closed");
  }
  Datagram datagram;
  datagram.proto = Datagram::Proto::kTcp;
  datagram.src_node = local_node_;
  datagram.src_port = local_port_;
  datagram.dst_node = peer_node_;
  datagram.dst_port = peer_port_;
  datagram.size = fin ? Bytes(40) : WireSize(local);
  datagram.conn_id = conn_id_;
  datagram.seq = next_tx_seq_++;
  datagram.tcp_fin = fin;
  if (!fin) {
    datagram.envelope = std::make_shared<const Envelope>(std::move(local));
  }
  const bool sent = co_await network_->Transmit(std::move(datagram), /*blocking=*/true);
  if (!sent) {
    co_return UnavailableError("send failed: peer or path down");
  }
  co_return OkStatus();
}

Co<Result<Envelope>> TcpConn::Call(MessageArg body, SimTime timeout) {
  if (state_ != State::kOpen) {
    co_return Result<Envelope>(UnavailableError("connection closed"));
  }
  if (timeout == SimTime()) {
    timeout = network_->params().rpc_timeout;
  }
  const char* rpc_name = MessageName(body.value);
  const SimTime rpc_start = network_->sim().Now();
  const uint64_t id = next_rpc_id_++;
  auto pending = std::make_shared<PendingCall>(network_->sim());
  pending_calls_[id] = pending;

  Envelope request_envelope{id, false, std::move(body.value)};
  const Status sent = co_await SendInternal(std::move(request_envelope), false);
  if (!sent.ok()) {
    pending_calls_.erase(id);
    TraceRpc(rpc_name, rpc_start, "send-failed");
    co_return Result<Envelope>(sent);
  }
  EventToken timer = network_->sim().ScheduleCancelableAt(
      network_->sim().Now() + timeout, [pending] {
        pending->failed = true;
        pending->cond.NotifyAll();
      });
  while (pending->result == nullptr && !pending->failed) {
    co_await pending->cond.Wait();
  }
  timer.Cancel();
  pending_calls_.erase(id);
  if (pending->result != nullptr) {
    TraceRpc(rpc_name, rpc_start, "ok");
    co_return Result<Envelope>(std::move(*pending->result));
  }
  if (state_ != State::kOpen) {
    TraceRpc(rpc_name, rpc_start, "broken");
    co_return Result<Envelope>(UnavailableError("connection broke during call"));
  }
  TraceRpc(rpc_name, rpc_start, "timeout");
  co_return Result<Envelope>(DeadlineExceededError("rpc timed out"));
}

void TcpConn::TraceRpc(const char* name, SimTime start, const char* outcome) {
  TraceRecorder& tracer = network_->trace();
  if (!tracer.enabled()) {
    return;
  }
  tracer.Span("net", "net", std::string("rpc:") + name, start,
              local_node_ + "->" + peer_node_ + " " + outcome);
}

void TcpConn::Close() {
  if (state_ != State::kOpen) {
    return;
  }
  // Fire-and-forget FIN; the local side is closed immediately.
  [](TcpConn* conn) -> Task { co_await conn->SendInternal(Envelope{}, /*fin=*/true); }(this);
  MarkDead(State::kClosed);
}

void TcpConn::HandleIncoming(const Datagram& datagram) {
  if (state_ != State::kOpen) {
    return;
  }
  if (datagram.tcp_rst) {
    MarkDead(State::kBroken);
    return;
  }
  // In-order delivery with a reorder buffer (defensive; the simulated path
  // preserves order for a given connection).
  if (datagram.tcp_fin) {
    reorder_buffer_[datagram.seq] = Envelope{0, false, MessageBody{SimpleResponse{}}};
    fin_seq_ = datagram.seq;
  } else {
    reorder_buffer_[datagram.seq] = *datagram.envelope;
  }
  while (true) {
    auto it = reorder_buffer_.find(next_rx_seq_);
    if (it == reorder_buffer_.end()) {
      break;
    }
    Envelope envelope = std::move(it->second);
    const int64_t seq = it->first;
    reorder_buffer_.erase(it);
    ++next_rx_seq_;
    if (seq == fin_seq_) {
      MarkDead(State::kClosed);
      return;
    }
    DeliverInOrder(envelope);
    if (state_ != State::kOpen) {
      return;
    }
  }
}

void TcpConn::DeliverInOrder(const Envelope& envelope) {
  if (envelope.is_response) {
    auto it = pending_calls_.find(envelope.rpc_id);
    if (it != pending_calls_.end()) {
      it->second->result = std::make_unique<Envelope>(envelope);
      it->second->cond.NotifyAll();
    }
    return;
  }
  if (request_handler_) {
    RunRequestHandler(envelope);
    return;
  }
  if (receive_handler_) {
    receive_handler_(this, envelope);
  }
}

Task TcpConn::RunRequestHandler(Envelope request) {
  MessageBody response = co_await request_handler_(request.body);
  if (state_ != State::kOpen) {
    co_return;
  }
  co_await SendInternal(Envelope{request.rpc_id, true, std::move(response)}, false);
}

void TcpConn::MarkDead(State state) {
  if (state_ != State::kOpen) {
    return;
  }
  state_ = state;
  if (state == State::kBroken) {
    network_->trace().Instant("net", "net", "conn-broken", local_node_ + "->" + peer_node_);
  }
  for (auto& [id, pending] : pending_calls_) {
    pending->failed = true;
    pending->cond.NotifyAll();
  }
  if (close_handler_) {
    close_handler_(this);
  }
}

// ---------------------------------------------------------------- NetNode

NetNode::NetNode(Network* network, std::string name, Machine* machine, bool on_intra)
    : network_(network), name_(std::move(name)), machine_(machine), on_intra_(on_intra) {}

Status NetNode::BindUdp(int port, UdpHandler handler) {
  if (udp_ports_.contains(port)) {
    return AlreadyExistsError("udp port in use: " + std::to_string(port));
  }
  udp_ports_[port] = std::move(handler);
  return OkStatus();
}

Status NetNode::CloseUdp(int port) {
  if (udp_ports_.erase(port) == 0) {
    return NotFoundError("udp port not bound: " + std::to_string(port));
  }
  return OkStatus();
}

Co<bool> NetNode::SendUdp(std::string dst_node, int dst_port, Bytes size,
                          std::shared_ptr<const void> payload, int src_port) {
  Datagram datagram;
  datagram.proto = Datagram::Proto::kUdp;
  datagram.src_node = name_;
  datagram.src_port = src_port;
  datagram.dst_node = std::move(dst_node);
  datagram.dst_port = dst_port;
  datagram.size = size;
  datagram.payload = std::move(payload);
  return network_->Transmit(std::move(datagram), /*blocking=*/false);
}

Co<bool> NetNode::SendUdpFlow(std::string dst_node, int dst_port, Bytes size,
                              int64_t packet_count, std::shared_ptr<const void> payload,
                              int src_port) {
  Datagram datagram;
  datagram.proto = Datagram::Proto::kUdp;
  datagram.src_node = name_;
  datagram.src_port = src_port;
  datagram.dst_node = std::move(dst_node);
  datagram.dst_port = dst_port;
  datagram.size = size;
  datagram.flow_packets = packet_count;
  datagram.payload = std::move(payload);
  return network_->Transmit(std::move(datagram), /*blocking=*/true);
}

Status NetNode::ListenTcp(int port, AcceptHandler on_accept) {
  if (tcp_listeners_.contains(port)) {
    return AlreadyExistsError("tcp port in use: " + std::to_string(port));
  }
  tcp_listeners_[port] = std::move(on_accept);
  return OkStatus();
}

Co<Result<TcpConn*>> NetNode::ConnectTcp(std::string dst_node, int dst_port) {
  if (down_) {
    co_return Result<TcpConn*>(UnavailableError("local node down"));
  }
  // Handshake: one small segment each way.
  Datagram syn;
  syn.proto = Datagram::Proto::kTcp;
  syn.src_node = name_;
  syn.dst_node = dst_node;
  syn.dst_port = dst_port;
  syn.size = Bytes(40);
  syn.conn_id = 0;  // handshake, not yet a connection
  syn.seq = -1;
  const bool sent = co_await network_->Transmit(std::move(syn), /*blocking=*/true);
  if (!sent) {
    co_return Result<TcpConn*>(UnavailableError("connect: path down"));
  }
  co_await network_->sim().Delay(network_->params().propagation_delay * 2);

  NetNode* peer = network_->FindNode(dst_node);
  if (peer == nullptr) {
    co_return Result<TcpConn*>(NotFoundError("no such node: " + dst_node));
  }
  if (peer->down()) {
    co_return Result<TcpConn*>(UnavailableError("peer down: " + dst_node));
  }
  auto listener = peer->tcp_listeners_.find(dst_port);
  if (listener == peer->tcp_listeners_.end()) {
    co_return Result<TcpConn*>(UnavailableError("connection refused: " + dst_node + ":" +
                                                std::to_string(dst_port)));
  }
  co_return network_->EstablishConn(this, peer, dst_port, listener->second);
}

void NetNode::SetDown(bool down) {
  if (down_ == down) {
    return;
  }
  down_ = down;
  if (down_) {
    network_->BreakConnsTouching(name_);
  }
}

void NetNode::HandleReceivedDatagram(const Datagram& datagram) {
  if (down_) {
    return;
  }
  if (datagram.proto == Datagram::Proto::kUdp) {
    auto it = udp_ports_.find(datagram.dst_port);
    if (it != udp_ports_.end()) {
      it->second(datagram);
    }
    return;
  }
  if (datagram.conn_id == 0) {
    return;  // handshake segment; connection established out of band
  }
  TcpConn* conn = network_->FindConn(datagram.conn_id, name_, datagram.dst_port);
  if (conn != nullptr) {
    conn->HandleIncoming(datagram);
  }
}

// ---------------------------------------------------------------- Network

Network::Network(Simulator& sim, MetricsRegistry& metrics, TraceRecorder& trace,
                 NetworkParams params)
    : sim_(&sim), params_(params), fault_rng_(kFaultSeed), trace_(trace) {
  // All monotonic tallies: pull-mode counters, so the sampler's per-window
  // deltas turn them into packet/byte/drop rates.
  metrics.SetCounterCallback("net.datagrams.sent", [this] { return datagrams_sent_; });
  metrics.SetCounterCallback("net.bytes.intra", [this] { return intra_bytes_.count(); });
  metrics.SetCounterCallback("net.bytes.delivery", [this] { return delivery_bytes_.count(); });
  metrics.SetCounterCallback("net.udp.dropped", [this] { return udp_dropped_; });
  metrics.SetCounterCallback("net.fault.dropped", [this] { return fault_dropped_; });
  metrics.SetCounterCallback("net.fault.delayed", [this] { return fault_delayed_; });
}

NetNode* Network::AddNode(const std::string& name, Machine* machine, bool on_intra) {
  assert(!nodes_.contains(name));
  auto node = std::unique_ptr<NetNode>(new NetNode(this, name, machine, on_intra));
  NetNode* raw = node.get();
  nodes_[name] = std::move(node);

  // Each NIC's wire sink knows the segment it sits on, so a datagram is
  // routed once, at Transmit.
  auto hook = [this, raw](Nic& nic, Segment segment) {
    nic.set_wire_sink([this, segment](Frame frame) {
      auto datagram = std::static_pointer_cast<const Datagram>(std::move(frame.payload));
      SimTime delay = params_.propagation_delay;
      if (datagram->proto == Datagram::Proto::kUdp) {
        if (params_.udp_loss_rate > 0 && fault_rng_.NextBernoulli(params_.udp_loss_rate)) {
          ++udp_dropped_;
          return;
        }
        if (params_.udp_jitter_max > SimTime()) {
          delay += SimTime(static_cast<int64_t>(
              fault_rng_.NextDouble() * static_cast<double>(params_.udp_jitter_max.nanos())));
        }
      }
      if (fault_hook_) {
        const LinkFault fault = fault_hook_(*datagram);
        if (fault.drop) {
          ++fault_dropped_;
          return;
        }
        if (fault.extra_delay > SimTime()) {
          ++fault_delayed_;
          delay += fault.extra_delay;
        }
      }
      sim_->ScheduleAfter(delay, [this, segment, datagram = std::move(datagram)]() mutable {
        DeliverToNode(segment, std::move(datagram));
      });
    });
    nic.set_rx_sink([raw](Frame frame) {
      auto datagram = std::static_pointer_cast<const Datagram>(frame.payload);
      raw->HandleReceivedDatagram(*datagram);
    });
  };
  hook(machine->fddi(), Segment::kDelivery);
  hook(machine->ethernet(), Segment::kIntra);
  return raw;
}

NetNode* Network::FindNode(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.get();
}

Segment Network::Route(const NetNode& src, const NetNode& dst) const {
  if (params_.use_intra_lan && src.on_intra() && dst.on_intra()) {
    return Segment::kIntra;
  }
  return Segment::kDelivery;
}

Result<Segment> Network::Route(const std::string& src, const std::string& dst) const {
  auto src_it = nodes_.find(src);
  auto dst_it = nodes_.find(dst);
  if (src_it == nodes_.end() || dst_it == nodes_.end()) {
    return NotFoundError("no such node: " + (src_it == nodes_.end() ? src : dst));
  }
  return Route(*src_it->second, *dst_it->second);
}

Co<bool> Network::Transmit(Datagram datagram, bool blocking) {
  NetNode* src = FindNode(datagram.src_node);
  if (src == nullptr || src->down()) {
    co_return false;
  }
  const NetNode* dst = FindNode(datagram.dst_node);
  if (dst == nullptr) {
    co_return false;
  }
  const Segment segment = Route(*src, *dst);
  Nic& nic = segment == Segment::kIntra ? src->machine().ethernet() : src->machine().fddi();
  // One UDP/IP header per logical packet: an aggregated flow chunk occupies
  // the same wire bytes as the burst it stands in for.
  const Bytes wire_size = datagram.size + kUdpIpHeader * datagram.flow_packets;
  if (segment == Segment::kIntra) {
    intra_bytes_ += wire_size;
  } else {
    delivery_bytes_ += wire_size;
  }
  datagrams_sent_ += datagram.flow_packets;
  Frame frame;
  frame.size = wire_size;
  frame.packet_count = datagram.flow_packets;
  frame.payload = std::make_shared<const Datagram>(std::move(datagram));
  if (blocking) {
    co_await nic.SendBlocking(std::move(frame));
    co_return true;
  }
  co_return co_await nic.TrySend(std::move(frame));
}

void Network::DeliverToNode(Segment segment, std::shared_ptr<const Datagram> datagram) {
  NetNode* dst = FindNode(datagram->dst_node);
  if (dst == nullptr || dst->down()) {
    return;
  }
  Nic& nic = segment == Segment::kIntra ? dst->machine().ethernet() : dst->machine().fddi();
  Frame frame;
  frame.size = datagram->size + kUdpIpHeader * datagram->flow_packets;
  frame.packet_count = datagram->flow_packets;
  frame.payload = std::move(datagram);
  nic.DeliverFromWire(std::move(frame));
}

TcpConn* Network::EstablishConn(NetNode* client, NetNode* server, int server_port,
                                const AcceptHandler& on_accept) {
  const uint64_t id = next_conn_id_++;
  const int client_port = client->AllocateEphemeralPort();
  auto client_conn = std::unique_ptr<TcpConn>(
      new TcpConn(this, id, client->name(), client_port, server->name(), server_port));
  auto server_conn = std::unique_ptr<TcpConn>(
      new TcpConn(this, id, server->name(), server_port, client->name(), client_port));
  TcpConn* client_raw = client_conn.get();
  TcpConn* server_raw = server_conn.get();
  conns_.push_back(std::move(client_conn));
  conns_.push_back(std::move(server_conn));
  conn_index_[{id, client->name(), client_port}] = client_raw;
  conn_index_[{id, server->name(), server_port}] = server_raw;
  on_accept(server_raw);
  return client_raw;
}

TcpConn* Network::FindConn(uint64_t conn_id, const std::string& node, int local_port) {
  auto it = conn_index_.find({conn_id, node, local_port});
  return it == conn_index_.end() ? nullptr : it->second;
}

void Network::BreakConnsTouching(const std::string& node) {
  for (auto& conn : conns_) {
    if (conn->state_ == TcpConn::State::kOpen &&
        (conn->local_node() == node || conn->peer_node() == node)) {
      conn->MarkDead(TcpConn::State::kBroken);
    }
  }
}

double Network::SegmentUtilization(Segment segment, SimTime since) const {
  const SimTime elapsed = sim_->Now() - since;
  if (elapsed <= SimTime()) {
    return 0.0;
  }
  const DataRate rate = segment == Segment::kIntra ? intra_rate_ : delivery_rate_;
  const double bits = static_cast<double>(segment_bytes(segment).count()) * 8.0;
  return bits / (static_cast<double>(rate.bits_per_sec()) * elapsed.seconds());
}

}  // namespace calliope
