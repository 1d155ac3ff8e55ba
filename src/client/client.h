// Calliope client library (§2.1).
//
// Wraps the client side of the protocol: session establishment with the
// Coordinator, display-port registration (atomic and composite), play /
// record requests, the VCR control connection the MSU opens back to the
// client, and media endpoints that receive (playback) or transmit
// (recording) UDP packet streams.
//
// Each display port models the paper's client buffering assumption: "A 200
// KByte buffer will hold more than one second of 1.5 Mbit/sec video" — a
// packet is a glitch only if it arrives later than the buffer can absorb.
#ifndef CALLIOPE_SRC_CLIENT_CLIENT_H_
#define CALLIOPE_SRC_CLIENT_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/client/playout_buffer.h"
#include "src/media/packet.h"
#include "src/net/network.h"
#include "src/util/histogram.h"

namespace calliope {

struct MediaDatagramPayload;
class QosAccumulator;

// A registered media endpoint. The software behind it "can be a software
// encoder/decoder that is part of the client application or a simple driver
// for a hardware device"; here it gathers delivery statistics.
class ClientDisplayPort {
 public:
  const std::string& name() const { return name_; }
  const std::string& type_name() const { return type_name_; }
  int udp_port() const { return udp_port_; }

  int64_t packets_received() const { return packets_received_; }
  // Arrival time of the most recent run's first media packet (startup /
  // post-seek latency measurements). Zero when nothing has arrived.
  SimTime first_arrival() const { return first_arrival_; }
  void ResetArrivalMark() { first_arrival_ = SimTime(); }
  int64_t control_packets_received() const { return control_packets_received_; }
  Bytes bytes_received() const { return bytes_received_; }
  // Arrival time minus the sender's deadline (includes network latency).
  const LatenessHistogram& arrival_lateness() const { return arrival_lateness_; }
  // Packets that arrived too late for the client buffer to smooth.
  int64_t glitches() const { return glitches_; }
  SimTime buffer_allowance() const { return buffer_allowance_; }
  // Delivery-schedule monotonicity: datagrams of one stream carry strictly
  // increasing sequence numbers, so any arrival at or below the last seen
  // seq is a reordering (drops only make gaps). Chaos-test invariant: 0.
  int64_t out_of_order() const { return out_of_order_; }
  // Longest silence between consecutive media packets — the client-visible
  // "delivery gap" across a failover or fault window. Zero until two packets
  // have arrived.
  SimTime max_arrival_gap() const { return max_arrival_gap_; }

  // Optional explicit decoder-buffer simulation (§2.2.1): attach before
  // playback to measure glitches/overflows for a concrete buffer size.
  void AttachPlayoutBuffer(Bytes buffer_capacity, DataRate stream_rate) {
    playout_.emplace(PlayoutBuffer::ForStream(buffer_capacity, stream_rate));
  }
  const PlayoutBuffer* playout() const { return playout_.has_value() ? &*playout_ : nullptr; }

 private:
  friend class CalliopeClient;
  std::string name_;
  std::string type_name_;
  int udp_port_ = 0;
  std::vector<std::string> component_ports_;
  SimTime buffer_allowance_ = SimTime::Millis(850);  // §2.2.1's jitter budget
  SimTime first_arrival_;
  std::optional<PlayoutBuffer> playout_;
  SimTime last_media_offset_ = SimTime::Nanos(INT64_MIN);
  int64_t packets_received_ = 0;
  int64_t control_packets_received_ = 0;
  Bytes bytes_received_;
  LatenessHistogram arrival_lateness_;
  SimTime last_arrival_;
  SimTime max_arrival_gap_;
  int64_t glitches_ = 0;
  std::map<StreamId, int64_t> last_seq_;
  int64_t out_of_order_ = 0;
};

class CalliopeClient {
 public:
  struct GroupState {
    GroupState() = default;

    GroupId group = 0;
    TcpConn* control_conn = nullptr;
    StreamGroupInfo info;
    bool info_received = false;
    bool terminated = false;
    // Non-empty when the Coordinator explicitly failed the request
    // (PendingRequestFailed): queue deadline expiry, load shedding, a
    // failover that found no capacity.
    std::string failure_reason;
  };

  CalliopeClient(NetNode& node, std::string coordinator_node, int coordinator_port = 5000);

  CalliopeClient(const CalliopeClient&) = delete;
  CalliopeClient& operator=(const CalliopeClient&) = delete;

  // Coordinator warm-standby HA: the full set of coordinator hosts to cycle
  // through when the session connection breaks. With fewer than two hosts
  // the client keeps its legacy behavior (a broken session stays broken).
  void set_coordinator_hosts(std::vector<std::string> hosts) {
    coordinator_hosts_ = std::move(hosts);
  }
  // HA epoch of the coordinator this session is registered under (0 until an
  // HA coordinator answered). Failure notifications from older epochs —
  // a deposed primary flushing its queue — are ignored.
  int64_t coordinator_epoch() const { return coordinator_epoch_; }

  // Session lifecycle.
  Co<Status> Connect(std::string customer, std::string credential);
  void Disconnect();
  SessionId session() const { return session_; }
  bool connected() const { return conn_ != nullptr && !conn_->closed(); }

  // Catalog.
  Co<Result<std::vector<ContentInfo>>> ListContent();

  // Display ports. Atomic ports bind a data UDP port (and the adjacent
  // control port for protocols that use one); composite ports reference
  // previously-registered component ports.
  // Note: coroutine parameters are taken by value — the coroutine may start
  // after the caller's temporaries are gone.
  Co<Result<ClientDisplayPort*>> RegisterPort(std::string name, std::string type_name);
  Co<Result<ClientDisplayPort*>> RegisterCompositePort(std::string name, std::string type_name,
                                                       std::vector<std::string> component_ports);
  Co<Status> UnregisterPort(std::string name);
  ClientDisplayPort* FindPort(const std::string& name);
  // Visits registered display ports in name order (ClusterReport assembly).
  void ForEachPort(const std::function<void(const ClientDisplayPort&)>& fn) const;

  // Content operations. On success the returned group id addresses VCR
  // commands; `queued` reports the Coordinator queued the request.
  struct StartResult {
    GroupId group = 0;
    bool queued = false;
  };
  // `klass` tags the request for the Coordinator's traffic control (DESIGN
  // §5.9); with traffic control disabled it is carried but ignored.
  Co<Result<StartResult>> Play(std::string content, std::string port_name,
                               AdmissionClass klass = AdmissionClass::kStandard);
  Co<Result<StartResult>> Record(std::string content_name, std::string type_name,
                                 std::string port_name, SimTime estimated_length,
                                 AdmissionClass klass = AdmissionClass::kBulk);
  Co<Status> DeleteContent(std::string content);
  Co<Status> LoadFastScan(std::string content, std::string ff_file, std::string fb_file);

  // VCR commands ("pause, play, seek, and quit", plus fast forward/backward
  // where the content has filtered variants). They wait for the MSU's
  // control connection if it has not arrived yet.
  Co<Status> Vcr(GroupId group, VcrCommand::Op op, SimTime seek_to = SimTime());
  Co<Status> Quit(GroupId group) { return Vcr(group, VcrCommand::Op::kQuit); }

  // Waits until the MSU has opened the group's control connection and sent
  // its StreamGroupInfo (i.e. the stream is being served).
  Co<Status> WaitForGroupReady(GroupId group, SimTime timeout = SimTime::Seconds(60));
  // True once the MSU closed the group's control connection (stream over).
  bool GroupTerminated(GroupId group) const;
  // The Coordinator's explicit failure notice for the group, or empty if the
  // group never received one (still live, or ended normally).
  std::string GroupFailure(GroupId group) const;

  // Recording source: feeds `packets` (delivery offsets relative to start)
  // to the group's component `index` in real time. Returns packets sent.
  Co<Result<int64_t>> SendRecording(GroupId group, int component_index,
                                    const PacketSequence& packets);

  NetNode& node() { return *node_; }
  Simulator& sim() { return node_->machine().sim(); }

  // Windowed QoS sink for the continuous-telemetry sampler (null = no
  // sampler): every media inter-arrival gap is recorded through it, so a
  // delivery stall shows up in the window it happened, not just as the
  // end-of-run max_gap_us.
  void set_qos_sink(QosAccumulator* qos) { qos_ = qos; }

 private:
  void OnMediaDatagram(ClientDisplayPort& port, const Datagram& datagram);
  // Flow-fidelity chunk: synthesizes the per-record arrival accounting the
  // per-packet model would have produced (see DESIGN.md §5.5).
  void OnFlowChunk(ClientDisplayPort& port, const MediaDatagramPayload& payload);
  // Per-arrival bookkeeping of one media packet, shared by both fidelities:
  // arrival span, gap, lateness, glitches, playout and bytes.
  void RecordArrival(ClientDisplayPort& port, SimTime arrival, SimTime deadline,
                     SimTime delivery_offset, Bytes size);
  void OnControlAccept(TcpConn* conn);
  GroupState& GroupFor(GroupId group);
  // Installs the receive/close handlers on conn_ (session notifications,
  // HA redial trigger).
  void WireSessionConn();
  // Redials the coordinator pair after the session connection broke,
  // resuming the old session id on the survivor (or re-registering ports
  // when the new primary issued a fresh session).
  Task RedialLoop();
  Co<void> ReRegisterPorts();

  NetNode* node_;
  std::string coordinator_node_;
  int coordinator_port_;
  TcpConn* conn_ = nullptr;
  SessionId session_ = 0;
  int control_listen_port_ = 0;
  // --- Coordinator HA state ---
  std::vector<std::string> coordinator_hosts_;
  std::string customer_;
  std::string credential_;
  int64_t coordinator_epoch_ = 0;
  size_t host_index_ = 0;
  bool redialing_ = false;
  std::map<std::string, std::unique_ptr<ClientDisplayPort>> ports_;
  std::map<GroupId, GroupState> groups_;
  std::unique_ptr<Condition> group_events_;
  QosAccumulator* qos_ = nullptr;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_CLIENT_CLIENT_H_
