// Simulated network fabric: nodes (machines) joined by two segment classes —
// the low-bandwidth intra-server LAN (Ethernet) and the high-bandwidth
// multimedia delivery network (FDDI) — with UDP datagrams for media and
// TCP-like reliable ordered connections (plus a small RPC facility) for
// control traffic, exactly the transport split of paper §2.
//
// Sender-side serialization, CPU and memory-bus costs are charged by the
// hw::Nic send path; the fabric adds propagation delay, routes frames to the
// destination host's receive path, counts per-segment bytes (for the §3.3
// "network utilization" measurement) and models node failures: a down node
// neither sends nor receives, and its TCP connections break — which is how
// the Coordinator detects MSU failures.
#ifndef CALLIOPE_SRC_NET_NETWORK_H_
#define CALLIOPE_SRC_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/machine.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/co.h"
#include "src/sim/condition.h"
#include "src/sim/task.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace calliope {

class Network;
class NetNode;
class TcpConn;

enum class Segment { kIntra, kDelivery };

struct NetworkParams {
  SimTime propagation_delay = SimTime::Micros(100);
  // If false, control traffic rides the delivery network too ("a Calliope
  // installation could eliminate the intra-server network").
  bool use_intra_lan = true;
  // Default timeout for RPC calls.
  SimTime rpc_timeout = SimTime::Seconds(10);
  // Fault/jitter injection for media (UDP) datagrams: each is dropped with
  // probability `udp_loss_rate`, and delayed by U(0, udp_jitter_max) —
  // "clients will have to be able to handle the jitter introduced by the
  // multimedia delivery network anyway."
  double udp_loss_rate = 0.0;
  SimTime udp_jitter_max;
};

// A datagram in flight. `payload` is opaque to the fabric.
// Non-aggregate (declared constructor): safe as a coroutine parameter.
struct Datagram {
  enum class Proto { kUdp, kTcp };

  Datagram() = default;

  Proto proto = Proto::kUdp;
  std::string src_node;
  int src_port = 0;
  std::string dst_node;
  int dst_port = 0;
  Bytes size;
  std::shared_ptr<const void> payload;
  // Flow-mode batching: this datagram stands in for `flow_packets` logical
  // UDP datagrams sent back to back (`size` is their total payload). The
  // fabric charges one UDP/IP header per logical packet and forwards the
  // count to the NIC, which charges per-packet CPU but one aggregate
  // copy/checksum/DMA/wire reservation.
  int64_t flow_packets = 1;
  // TCP only:
  uint64_t conn_id = 0;
  int64_t seq = 0;
  bool tcp_fin = false;
  bool tcp_rst = false;
  std::shared_ptr<const Envelope> envelope;
};

using UdpHandler = std::function<void(const Datagram&)>;
using AcceptHandler = std::function<void(TcpConn*)>;

// Reliable ordered control connection with integrated request/response RPC.
class TcpConn {
 public:
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;
  ~TcpConn();

  // Sends a one-way message (no response expected).
  Co<Status> Send(Envelope envelope);

  // Request/response: sends, then waits for the matching response or
  // timeout. SimTime() means the network's default timeout.
  Co<Result<Envelope>> Call(MessageArg body, SimTime timeout = SimTime());

  // Handler for incoming non-response messages when no request handler is
  // registered (one-way notifications).
  void set_receive_handler(std::function<void(TcpConn*, const Envelope&)> handler) {
    receive_handler_ = std::move(handler);
  }
  // Handler that computes a response for each incoming request; the
  // connection sends the response automatically.
  void set_request_handler(std::function<Co<MessageBody>(const MessageBody&)> handler) {
    request_handler_ = std::move(handler);
  }
  void set_close_handler(std::function<void(TcpConn*)> handler) {
    close_handler_ = std::move(handler);
  }

  // Graceful close: notifies the peer (FIN).
  void Close();
  bool closed() const { return state_ != State::kOpen; }
  bool broken() const { return state_ == State::kBroken; }

  const std::string& local_node() const { return local_node_; }
  const std::string& peer_node() const { return peer_node_; }
  int peer_port() const { return peer_port_; }
  uint64_t id() const { return conn_id_; }

 private:
  friend class Network;
  friend class NetNode;
  enum class State { kOpen, kClosed, kBroken };

  struct PendingCall {
    explicit PendingCall(Simulator& sim) : cond(sim) {}
    std::unique_ptr<Envelope> result;
    bool failed = false;
    Condition cond;
  };

  TcpConn(Network* network, uint64_t conn_id, std::string local_node, int local_port,
          std::string peer_node, int peer_port);

  Co<Status> SendInternal(Envelope envelope, bool fin);
  void TraceRpc(const char* name, SimTime start, const char* outcome);
  void HandleIncoming(const Datagram& datagram);
  void DeliverInOrder(const Envelope& envelope);
  Task RunRequestHandler(Envelope request);
  // Marks the connection dead and fails all pending calls.
  void MarkDead(State state);

  Network* network_;
  uint64_t conn_id_;
  std::string local_node_;
  int local_port_;
  std::string peer_node_;
  int peer_port_;
  State state_ = State::kOpen;
  uint64_t next_rpc_id_ = 1;
  int64_t next_tx_seq_ = 0;
  int64_t next_rx_seq_ = 0;
  int64_t fin_seq_ = -1;
  std::map<int64_t, Envelope> reorder_buffer_;
  std::map<uint64_t, std::shared_ptr<PendingCall>> pending_calls_;
  std::function<void(TcpConn*, const Envelope&)> receive_handler_;
  std::function<Co<MessageBody>(const MessageBody&)> request_handler_;
  std::function<void(TcpConn*)> close_handler_;
};

class NetNode {
 public:
  const std::string& name() const { return name_; }
  Machine& machine() { return *machine_; }
  bool on_intra() const { return on_intra_; }

  // UDP: binds `handler` to `port`. Fails if the port is taken.
  Status BindUdp(int port, UdpHandler handler);
  Status CloseUdp(int port);
  // Sends one UDP datagram; returns false on ENOBUFS (the caller paces or
  // retries, like the MSU's network process).
  // Coroutine parameters are by value: the body may run after call-site
  // temporaries are gone (lazy start).
  Co<bool> SendUdp(std::string dst_node, int dst_port, Bytes size,
                   std::shared_ptr<const void> payload, int src_port = 0);
  // Flow-mode aggregate: one chunk standing in for `packet_count` datagrams
  // totalling `size` payload bytes. Blocking admission (the flow loop has
  // already folded pacing into its refill schedule, so ENOBUFS retries every
  // 1 ms like ttcp instead of dropping a whole page).
  Co<bool> SendUdpFlow(std::string dst_node, int dst_port, Bytes size, int64_t packet_count,
                       std::shared_ptr<const void> payload, int src_port = 0);

  // TCP.
  Status ListenTcp(int port, AcceptHandler on_accept);
  Co<Result<TcpConn*>> ConnectTcp(std::string dst_node, int dst_port);

  // Crash / restore. Going down breaks every connection touching this node.
  void SetDown(bool down);
  bool down() const { return down_; }

  int AllocateEphemeralPort() { return next_ephemeral_port_++; }

 private:
  friend class Network;
  friend class TcpConn;
  NetNode(Network* network, std::string name, Machine* machine, bool on_intra);

  void HandleReceivedDatagram(const Datagram& datagram);

  Network* network_;
  std::string name_;
  Machine* machine_;
  bool on_intra_;
  bool down_ = false;
  std::unordered_map<int, UdpHandler> udp_ports_;  // never iterated
  std::map<int, AcceptHandler> tcp_listeners_;
  int next_ephemeral_port_ = 32768;
};

// Verdict of the link fault hook for one datagram on the wire (see
// src/fault). Dropping a TCP segment wedges the receiver's reorder buffer
// forever (there is no retransmission in this model), so partition-style
// faults should delay TCP traffic to the heal point instead of dropping it.
struct LinkFault {
  LinkFault() = default;
  bool drop = false;      // lose the datagram in flight
  SimTime extra_delay;    // added to the propagation delay
};

class Network {
 public:
  // Consulted once per datagram as it leaves the source NIC; may be empty.
  using LinkFaultHook = std::function<LinkFault(const Datagram&)>;

  // Publishes fabric counters into `metrics` and RPC/connection events into
  // `trace`; both must outlive the network.
  Network(Simulator& sim, MetricsRegistry& metrics, TraceRecorder& trace,
          NetworkParams params = NetworkParams());

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // All nodes sit on the delivery network; servers also join the intra LAN.
  NetNode* AddNode(const std::string& name, Machine* machine, bool on_intra);
  NetNode* FindNode(const std::string& name);

  Simulator& sim() { return *sim_; }
  const NetworkParams& params() const { return params_; }

  // Traffic accounting per segment since construction.
  Bytes segment_bytes(Segment segment) const {
    return segment == Segment::kIntra ? intra_bytes_ : delivery_bytes_;
  }
  // Mean utilization of a segment's nominal bandwidth over [t0, now].
  double SegmentUtilization(Segment segment, SimTime since) const;

  // Picks the segment connecting two nodes (intra preferred for
  // server-to-server traffic when enabled).
  Segment Route(const NetNode& src, const NetNode& dst) const;
  // As above, by node name; fails for an unknown node.
  Result<Segment> Route(const std::string& src, const std::string& dst) const;

  int64_t udp_dropped() const { return udp_dropped_; }

  void set_fault_hook(LinkFaultHook hook) { fault_hook_ = std::move(hook); }
  int64_t fault_dropped() const { return fault_dropped_; }
  int64_t fault_delayed() const { return fault_delayed_; }

  TraceRecorder& trace() { return trace_; }

 private:
  friend class NetNode;
  friend class TcpConn;

  // Sends `datagram` through src's NIC; best-effort (media) or blocking
  // (control) admission.
  Co<bool> Transmit(Datagram datagram, bool blocking);
  // Hands a datagram that crossed `segment` to the destination's NIC on
  // that segment.
  void DeliverToNode(Segment segment, std::shared_ptr<const Datagram> datagram);
  void BreakConnsTouching(const std::string& node);
  TcpConn* EstablishConn(NetNode* client, NetNode* server, int server_port,
                         const AcceptHandler& on_accept);
  // Endpoints are identified by (conn id, node, local port): with a
  // colocated Coordinator both ends of a connection live on the same node.
  TcpConn* FindConn(uint64_t conn_id, const std::string& node, int local_port);

  Simulator* sim_;
  NetworkParams params_;
  // Hash maps only where nothing iterates them (DESIGN §5): iteration
  // order would otherwise leak into the simulation.
  std::unordered_map<std::string, std::unique_ptr<NetNode>> nodes_;
  std::vector<std::unique_ptr<TcpConn>> conns_;
  std::map<std::tuple<uint64_t, std::string, int>, TcpConn*> conn_index_;
  uint64_t next_conn_id_ = 1;
  Bytes intra_bytes_;
  Bytes delivery_bytes_;
  Rng fault_rng_{0};
  int64_t udp_dropped_ = 0;
  LinkFaultHook fault_hook_;
  int64_t fault_dropped_ = 0;
  int64_t fault_delayed_ = 0;
  TraceRecorder& trace_;
  int64_t datagrams_sent_ = 0;  // flow bursts count as the packets they carry
  DataRate intra_rate_ = DataRate::MegabitsPerSec(10);
  DataRate delivery_rate_ = DataRate::MegabitsPerSec(100);
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_NET_NETWORK_H_
