// The Multimedia Storage Unit (MSU): Calliope's real-time component (§2.3).
//
// Each MSU runs a central control process (RPCs from the Coordinator and VCR
// commands from clients), one disk process per disk (round-robin duty-cycle
// service with double buffering) and network delivery paced against stored or
// computed delivery schedules through 10 ms coarse timers. Streams support
// the full VCR set — play, pause, seek, quit — plus fast-forward and
// fast-backward via administrator-produced filtered files (§2.3.1).
#ifndef CALLIOPE_SRC_MSU_MSU_H_
#define CALLIOPE_SRC_MSU_MSU_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/msu_fs.h"
#include "src/hw/machine.h"
#include "src/msu/page_cache.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proto/protocol.h"
#include "src/sched/duty_cycle.h"
#include "src/sim/condition.h"
#include "src/sim/fidelity.h"
#include "src/util/histogram.h"

namespace calliope {

class Msu;
class QosAccumulator;

// Payload carried by every media UDP datagram; clients use it to measure
// arrival lateness and feed software decoders.
struct MediaDatagramPayload {
  MediaDatagramPayload() = default;

  StreamId stream = 0;
  int64_t seq = 0;
  SimTime deadline;        // sender-side delivery deadline (absolute)
  MediaPacket packet;
  bool is_control = false;

  // Flow-fidelity chunk (flow_count > 0): this payload stands in for
  // `flow_count` consecutive packets of one steady-state stream, delivered as
  // a single aggregate datagram. Per-record deadlines/sizes ride along so the
  // client can synthesize exactly the per-packet arrival accounting it would
  // have produced in packet fidelity; `flow_sent_at` lets it reconstruct each
  // record's transit time (arrival_i = deadline_i's tick + measured transit).
  struct FlowRecord {
    SimTime deadline;         // sender-side delivery deadline (absolute)
    SimTime delivery_offset;  // media-time offset of the record
    Bytes size;
  };
  int64_t flow_count = 0;
  SimTime flow_sent_at;
  std::vector<FlowRecord> flow_records;
};

// One viewer of a play stream (DESIGN §5.6). Every stream delivers through
// its members: a solo stream is a group of one whose member is its own
// client, and a shared delivery stream reads each block once and fans every
// packet out to all of its members. Each member keeps its own client
// address, sequence space and byte accounting, so a shared viewer looks like
// a solo one from the client side until a VCR op splits it off.
struct SharedMemberState {
  SharedMemberState() = default;
  // A solo stream's member: the stream's own client, id and group.
  SharedMemberState(const MsuStartGroup& launch, const MsuStreamSpec& solo)
      : stream(solo.stream),
        group(launch.group),
        client_node(solo.client_node),
        client_udp_port(solo.client_udp_port),
        client_control_port(launch.client_control_port) {}
  explicit SharedMemberState(const SharedMemberSpec& spec)
      : stream(spec.stream),
        group(spec.group),
        client_node(spec.client_node),
        client_udp_port(spec.client_udp_port),
        client_control_port(spec.client_control_port) {}

  StreamId stream = 0;
  GroupId group = 0;  // the member's client-facing stream group
  std::string client_node;
  int client_udp_port = 0;
  int client_control_port = 0;
  int64_t seq = 0;
  Bytes bytes_moved;
  int64_t packets_sent = 0;
};

// One active stream on an MSU (one member of a stream group).
class MsuStream {
 public:
  enum class Mode { kPlay, kRecord };
  enum class State { kStarting, kRunning, kPaused, kStopped };
  enum class Variant { kNormal, kFastForward, kFastBackward };

  MsuStream(Msu& msu, const MsuStartGroup& launch, const MsuStreamSpec& spec,
            std::unique_ptr<ProtocolModule> protocol);

  StreamId id() const { return id_; }
  GroupId group() const { return group_; }
  Mode mode() const { return mode_; }
  State state() const { return state_; }
  Variant variant() const { return variant_; }
  int disk() const { return disk_; }
  const std::string& file_name() const { return file_name_; }
  Bytes bytes_moved() const { return bytes_moved_; }
  int64_t packets_sent() const { return packets_sent_; }
  const LatenessHistogram& lateness() const { return lateness_; }
  SimTime start_time() const { return start_time_; }

  // VCR surface (applied by the MSU's control process). Seek and variant
  // switches are awaitable: they traverse IB-tree internal pages on disk.
  Status Pause();
  Status Resume();
  Co<Status> SeekTo(SimTime media_offset);
  Co<Status> SwitchVariant(Variant variant);
  Co<Status> Quit();

  // Recording input (from the MSU's UDP receive port).
  void OnRecordedPacket(const MediaPacket& packet);

  // Media-time position of the next packet to send.
  SimTime CurrentMediaOffset() const;

  // Current delivery fidelity (see src/sim/fidelity.h and DESIGN.md §5.5).
  Fidelity fidelity() const { return fidelity_; }

  // --- Stream sharing (DESIGN §5.6) ---
  // True when the members have stream ids of their own: a shared delivery
  // stream whose viewers the Coordinator tracks one by one. False for a solo
  // stream, whose one member carries the stream's own id and group.
  bool shared() const { return shared_; }
  // True for a trailing viewer served read-through from the MSU page cache
  // (no duty-cycle admission; misses spill to disk).
  bool from_cache() const { return from_cache_; }
  const std::vector<SharedMemberState>& members() const { return members_; }
  SharedMemberState* FindMember(GroupId group);
  // Removes and returns the member for `group`. The caller must have settled
  // the stream first (NoteInteresting, then SettleFanout) so the member's
  // byte accounting covers everything delivered before the split point.
  SharedMemberState DetachMember(GroupId group);
  // Blocks until no fan-out is in flight, in either fidelity. By the time a
  // fan-out suspends in a send, the stream's position is already past the
  // record or chunk on the wire: detaching a member then would lose it for
  // the members still waiting, or replay it to the detached one after a split.
  Co<void> SettleFanout();

 private:
  friend class Msu;

  Task PlaybackLoop();
  // Disk-process work unit: one block read (play prefetch) or one block
  // write (recording flush). Returns false if there was nothing to do.
  Co<bool> ServiceDisk();
  Co<Status> FinishRecording();
  bool NeedsDiskService() const;
  void StopInternal();
  // The only writers of state_, fidelity_ and listed_: each keeps
  // Msu::packet_neighbours_ equal to the number of streams for which
  // IsPacketNeighbour() holds.
  void SetState(State state);
  void SetFidelity(Fidelity fidelity);
  void SetListed(bool listed);
  // Listed on the MSU, not stopped and at packet fidelity: a stream a flow
  // neighbour's chunks must not queue ahead of (FlowChunkCap).
  bool IsPacketNeighbour() const {
    return listed_ && fidelity_ == Fidelity::kPacket && state_ != State::kStopped;
  }

  // --- Hybrid fidelity (flow fast path; see stream_flow.cc) ---
  // One flow-mode iteration: aggregate refill, one sleep to the front page's
  // last deadline, then one chunk send covering the whole page.
  Co<void> FlowStep();
  // Marks an interesting moment (VCR op, admission churn, disk fault,
  // congestion, stop): restarts the promotion quiet window and, if the stream
  // is in flow mode, settles the in-flight page and demotes to packet mode.
  void NoteInteresting();
  // Accounts and ships the already-due records of the in-flight flow page so
  // a demotion mid-page loses nothing the packet model would have sent.
  void SettleFlowPage();
  // Ships a settled chunk to members [first, end) once the in-flight fan-out
  // has given them the chunk before it, keeping their records in media order.
  Task SendChunkAfterFanout(size_t first, std::shared_ptr<MediaDatagramPayload> payload,
                            int64_t count, Bytes total);
  // Fire-and-forget chunk send to one member (settled records, whose delivery
  // instants have already passed).
  void SendChunkNow(const SharedMemberState& member,
                    std::shared_ptr<MediaDatagramPayload> datagram, int64_t count, Bytes total);
  void MaybePromote();
  bool FlowEligible() const;
  // Max records per aggregated chunk send: the whole page when every
  // co-resident stream is in flow mode, a few packet times' worth while a
  // packet-fidelity neighbour could queue behind the frame.
  size_t FlowChunkCap() const;
  // Builds the chunk payload for records [first, limit) of the front page,
  // accounting each record's analytic lateness once per member. Returns total
  // media bytes.
  std::shared_ptr<MediaDatagramPayload> BuildFlowChunk(size_t first, size_t limit,
                                                       Bytes* total_out);
  // `member`'s copy of `payload`, stamped with its stream id and next
  // sequence number. The last member takes `payload` itself, so a solo stream
  // never copies one.
  std::shared_ptr<MediaDatagramPayload> PayloadFor(
      const SharedMemberState& member, std::shared_ptr<MediaDatagramPayload>& payload);
  // PayloadFor plus the flow commit point: the member's sequence numbers,
  // bytes and packets for a `count`-record chunk are spent before the send.
  std::shared_ptr<MediaDatagramPayload> CommitChunk(
      SharedMemberState& member, std::shared_ptr<MediaDatagramPayload>& payload, int64_t count,
      Bytes total);
  // Shared per-packet accounting (histogram, counters, first-packet trace):
  // both fidelities report through this so observability is mode-agnostic.
  void AccountSentPacket(SimTime lateness);

  Msu* msu_;
  StreamId id_;
  GroupId group_;
  Mode mode_;
  State state_ = State::kStarting;
  bool listed_ = false;  // in Msu::streams_
  Variant variant_ = Variant::kNormal;
  std::string file_name_;
  std::string ff_file_;
  std::string fb_file_;
  std::string protocol_name_;
  std::unique_ptr<ProtocolModule> protocol_;
  DataRate rate_;
  int disk_ = 0;

  // Delivery targets. members_ is never empty while a play stream runs: the
  // one loop per fidelity sends every record or chunk to each member in turn.
  bool shared_ = false;
  bool from_cache_ = false;
  std::vector<SharedMemberState> members_;
  // Index in members_ of the member whose copy of the current record or
  // chunk is on the wire, or kNoFanout between fan-outs. Split and quit wait
  // for kNoFanout (SettleFanout), so membership only changes between
  // fan-outs; SettleFlowPage holds its chunk back from the members after
  // this one until they have the in-flight chunk.
  static constexpr size_t kNoFanout = static_cast<size_t>(-1);
  size_t fanout_member_ = kNoFanout;
  Condition fanout_settled_;

  // Playback state.
  MsuFile* file_ = nullptr;
  size_t next_page_to_read_ = 0;   // disk process cursor
  size_t play_page_ = 0;           // network process cursor
  size_t play_record_ = 0;
  std::deque<const DataPage*> prefetched_;  // double buffering: at most 2
  Condition buffers_changed_;
  // Wall-clock base: packet deadline = base_ + (delivery_offset - origin_).
  SimTime base_;
  SimTime origin_;
  bool rebase_needed_ = true;
  // Bumped by every VCR operation that moves the position; the playback loop
  // re-evaluates after timer sleeps when it changes.
  int64_t position_gen_ = 0;
  // Hybrid-fidelity state. Streams always start in packet mode; MaybePromote
  // lifts eligible steady-state streams to flow mode after a quiet window.
  Fidelity fidelity_ = Fidelity::kPacket;
  SimTime last_interesting_;          // last admission/VCR/fault/congestion event
  bool flow_page_in_flight_ = false;  // front page's records are analytically due

  // Recording state.
  IbTreeBuilder builder_;
  SimTime record_start_;
  bool record_started_ = false;
  SimTime last_stored_offset_;
  size_t pages_written_ = 0;
  bool record_write_in_flight_ = false;
  Condition record_pages_ready_;

  // Stats.
  SimTime start_time_;  // sim time the stream object was created
  Bytes bytes_moved_;
  int64_t packets_sent_ = 0;
  LatenessHistogram lateness_;
};

struct MsuParams {
  // "available main memory is organized into large buffers" — 32 MB minus
  // code/metadata leaves ~112 file-block buffers.
  int buffer_count = 112;
  bool striped_layout = false;  // §2.3.3: current implementation does not stripe
  // §2.3.3: "The current implementation of the MSU does not employ disk head
  // scheduling" — optional elevator (SCAN) ordering, worth ~6%.
  bool elevator_scheduling = false;
  int coordinator_port = 5000;
  int media_udp_port = 7000;    // MSU-side recording receive port base
  // TCP port serving ReplPullRequests for in-progress background replica
  // copies (the rebalancer's MSU-to-MSU transfer path, DESIGN §5.8).
  int replica_pull_port = 7100;
  // Coordinator nodes to cycle through when redialing (warm-standby HA).
  // Empty: only the host passed to RegisterWithCoordinator is retried.
  std::vector<std::string> coordinator_hosts;
  // Delivery-path fidelity policy. default_mode == kPacket keeps every stream
  // on the bit-exact per-packet model (the chaos/HA configuration);
  // kFlow enables the hybrid: eligible steady-state streams promote to the
  // flow fast path after `fidelity.quiet_window` without interesting events.
  FidelityConfig fidelity;
  // Interval/prefix page-cache budget (DESIGN §5.6). Zero (the default)
  // disables the cache entirely, keeping default configurations byte-
  // identical to the pre-sharing behavior. Also reported to the Coordinator
  // at registration so its ledger can admit cache-fed trailing viewers.
  Bytes cache_memory;
};

class Msu {
 public:
  // Publishes per-MSU counters/gauges (and the cluster-global sim.flow.*,
  // sim.cache.* and repl.* counters every MSU shares) into `metrics`, and
  // stream/disk events into `trace`; both must outlive the MSU.
  Msu(Machine& machine, NetNode& node, MetricsRegistry& metrics, TraceRecorder& trace,
      MsuParams params = MsuParams());

  Msu(const Msu&) = delete;
  Msu& operator=(const Msu&) = delete;

  // Connects to the Coordinator and registers ("When the MSU becomes
  // available again, it contacts the Coordinator").
  // Coroutine parameters are by value (lazy start).
  Co<Status> RegisterWithCoordinator(std::string coordinator_node);

  // Local control surface (also reachable via the Coordinator RPCs / the
  // group's client VCR connection).
  // Starts every stream of the group or none: see MsuStartGroup.
  Co<MessageBody> HandleStartGroup(MsuStartGroup request);
  Co<MessageBody> HandleVcr(VcrCommand command);

  // Background replica copy (rebalancing, DESIGN §5.8), driven by the
  // Coordinator over the registration connection. Prepare admits a read
  // slot on the source file's disk; Begin admits a write slot and starts
  // the paced pull; Abort stops either end (idempotent, unknown ops ack).
  MessageBody HandlePrepareCopy(const MsuPrepareCopy& request);
  MessageBody HandleBeginCopy(const MsuBeginCopy& request);
  MessageBody HandleAbortCopy(const MsuAbortCopy& request);
  // Copy ends still live on this MSU (source serves plus target pulls).
  int active_copy_count() const;

  MsuFileSystem& fs() { return fs_; }
  MsuPageCache& page_cache() { return page_cache_; }
  Machine& machine() { return *machine_; }
  NetNode& node() { return *node_; }
  Simulator& sim() { return machine_->sim(); }
  const MsuParams& params() const { return params_; }
  DutyCycleAllocator& duty_cycle() { return duty_cycle_; }
  ProtocolRegistry& protocols() { return protocols_; }

  // Crash / recovery for fault-tolerance experiments.
  void Crash();
  Co<Status> Restart(std::string coordinator_node);
  bool crashed() const { return crashed_; }

  // Aggregate stats over streams that ran (including finished ones).
  LatenessHistogram AggregateLateness() const;
  int active_stream_count() const;
  MsuStream* FindStream(StreamId id);

  // Visits every stream this MSU has served, live then finished, in stream-id
  // order (for ClusterReport assembly).
  void ForEachStream(const std::function<void(const MsuStream&, bool finished)>& fn) const;

  // Windowed QoS sink for the continuous-telemetry sampler (null = no
  // sampler): every sent packet's lateness is recorded through it, from both
  // delivery fidelities.
  void set_qos_sink(QosAccumulator* qos) { qos_ = qos; }

  // Highest Coordinator HA epoch this MSU has registered under (0 until the
  // first registration against an HA coordinator).
  int64_t coordinator_epoch() const { return last_epoch_; }
  // Epoch -> coordinator host that claimed it. Survives Crash() (models a
  // small durable epoch file); the split-brain test uses it to prove at most
  // one primary was ever accepted per epoch.
  const std::map<int64_t, std::string>& coordinator_epochs() const { return epoch_hosts_; }

 private:
  friend class MsuStream;

  struct Group {
    Group() = default;

    GroupId id = 0;
    TcpConn* control_conn = nullptr;
    std::vector<StreamId> streams;
  };

  Task DiskProcess(int disk_index);
  Task ProgressReporter();
  // Retries registration in the background after the Coordinator connection
  // breaks (Coordinator crash or a long partition) until it succeeds or this
  // MSU itself crashes.
  void ScheduleReconnect();
  Task ReconnectLoop();
  Task FlushMetadataBehind();
  void OnStreamFinished(MsuStream* stream);
  // Validates one stream of a launch, admits it against its disk's duty
  // cycle and takes its two buffers. A refusal gives back what it took,
  // including a recording's freshly created file.
  Result<std::unique_ptr<MsuStream>> AdmitStream(const MsuStartGroup& launch,
                                                 const MsuStreamSpec& spec);
  // Returns an admitted stream's duty-cycle slot and buffers.
  void ReleaseAdmission(MsuStream& stream);
  // Drops `group`'s entry and closes its control connection 20 ms later, so
  // an acknowledgment still owed on it (a VCR quit's) gets through.
  void EraseGroup(GroupId group);
  // Notes owed to the primary (terminations, share splits, replica results)
  // queue in one outbox until a primary acknowledges each, so a note in
  // flight when a primary dies is redelivered to its successor.
  void QueueNote(MessageBody note);
  Task FlushNotes();
  // True if `epoch` (0 = HA disabled) is acceptable and records the
  // epoch->host claim; false means the command comes from a deposed primary
  // or a second claimant of an already-claimed epoch.
  bool AcceptEpoch(int64_t epoch, const std::string& host);
  // Next host to dial: cycles params_.coordinator_hosts, or repeats the
  // remembered host when no list is configured.
  std::string NextCoordinatorHost();
  Task QuitStaleStreams(std::vector<StreamId> stale);
  Co<void> EnsureControlConn(Group& group, std::string client_node, int control_port);
  // Sends the per-member StreamGroupInfo that tells a client its group is
  // live on this MSU (used for solo groups and each shared member's group).
  Co<void> SendGroupInfo(Group& group);
  // VCR op on a member of a shared stream with other members still attached:
  // settles the fan-out, detaches the member and hands it to the Coordinator
  // (SharedMemberSplit) to re-admit as a solo stream at the split offset.
  Co<MessageBody> SplitSharedMember(MsuStream& stream, GroupId group, VcrCommand command);
  // Detaches `group`'s member for a quit: emits its termination note and
  // stops the delivery stream when the last member leaves.
  Co<MessageBody> QuitSharedMember(MsuStream& stream, GroupId group);
  // Reports a split to the primary; one no primary took waits in the note
  // outbox, so a takeover window cannot leak the member's shared hold.
  Task SendSplitToCoordinator(SharedMemberSplit split);
  // Termination bookkeeping for one shared member: its note to the
  // Coordinator, its group entry and control connection.
  void EmitMemberTermination(MsuStream& stream, const SharedMemberState& member);
  // Page-cache access with metric accounting. Lookup returns nullptr on a
  // miss (counted); Insert counts insertions and eviction deltas.
  const DataPage* CacheLookup(const std::string& file, size_t page_index);
  void CacheInsert(const std::string& file, size_t page_index, const DataPage* page);
  void OnMediaDatagram(const Datagram& datagram);
  // Interesting moment scoped to one disk (admission churn, disk fault):
  // demotes that disk's flow-mode streams back to the per-packet model.
  void NoteDiskInteresting(int disk_index);

  // --- Background replica copies (DESIGN §5.8) ---
  // One end of a copy, holding a duty-cycle slot on `disk` at `rate` so live
  // service is never oversold by replication I/O. A source end serves
  // ReplPullRequests for source_file; a target end runs a paced pull of it
  // into replica_file (the fields from `content` on are the target's).
  struct CopyEnd {
    CopyEnd() = default;

    int64_t op = 0;
    std::string source_file;
    int disk = 0;
    DataRate rate;
    bool slot_held = false;
    bool aborted = false;  // a target pull rolling back; never preempted again
    std::string content;
    std::string source_node;
    int source_port = 0;
    std::string replica_file;
    int64_t page_count = 0;
    std::string abort_reason;
    TcpConn* conn = nullptr;
    Bytes bytes_copied;
    std::shared_ptr<const void> image;  // sealed IB-tree image off the last pull
  };
  // Paced pull loop for replica_pulls_[op_id]: one 256 KB page per
  // rate.TransferTime(page), landed on the local disk as it arrives and
  // committed via the deep-copied image on the last page. Re-looks the op
  // up after every await — aborts and crashes mutate the map underneath it.
  Task RunReplicaPull(int64_t op_id);
  // Frees `end`'s duty-cycle slot; a no-op once freed.
  void ReleaseCopySlot(CopyEnd& end);
  // Stops a target-end pull: frees its duty slot immediately (preempting
  // callers need it synchronously) and flags the loop to roll back.
  void AbortPull(CopyEnd& pull, std::string reason);
  // Frees the duty slot of one in-flight copy end on `disk_index` so a live
  // admission can take it; the copy aborts and the Coordinator reschedules.
  bool PreemptCopyOnDisk(int disk_index);
  // Serves one ReplPullRequest on the replica pull listener.
  Co<MessageBody> ServeReplicaPull(ReplPullRequest request);

  Machine* machine_;
  NetNode* node_;
  MsuParams params_;
  MsuFileSystem fs_;
  MsuPageCache page_cache_;
  DutyCycleAllocator duty_cycle_;
  ProtocolRegistry protocols_;
  Semaphore buffer_pool_;
  std::map<StreamId, std::unique_ptr<MsuStream>> streams_;
  // Streams in streams_ with IsPacketNeighbour(), so FlowChunkCap is O(1).
  int64_t packet_neighbours_ = 0;
  std::map<StreamId, std::unique_ptr<MsuStream>> finished_streams_;
  std::map<GroupId, Group> groups_;
  std::vector<std::unique_ptr<Condition>> disk_work_;
  TcpConn* coordinator_conn_ = nullptr;
  std::string coordinator_host_;  // remembered for background reconnects
  bool reconnect_pending_ = false;
  bool crashed_ = false;
  // --- Coordinator HA state ---
  int64_t last_epoch_ = 0;                     // highest epoch registered under
  std::map<int64_t, std::string> epoch_hosts_; // epoch -> claiming host (durable)
  size_t host_index_ = 0;                      // redial rotation cursor
  // True once a registration succeeded while streams could be live: the next
  // registration is "warm" (keep ledger holds). Reset by Crash() — a cold
  // restart lost its streams, so the Coordinator must rebuild the account.
  bool warm_eligible_ = false;
  // Notes not yet acknowledged by a primary. Cleared by Crash() (the MSU
  // process died); otherwise drained by FlushNotes().
  std::deque<MessageBody> outbox_;
  bool outbox_flushing_ = false;
  // Background replica-copy ends (DESIGN §5.8), keyed by Coordinator op id.
  std::map<int64_t, CopyEnd> replica_sources_;
  std::map<int64_t, CopyEnd> replica_pulls_;
  StreamId next_local_stream_id_ = 1000000;  // for locally-initiated streams

  // Instruments, bound at construction so the per-packet path is one add.
  TraceRecorder& trace_;
  QosAccumulator* qos_ = nullptr;  // null unless a sampler runs
  Counter& packets_sent_metric_;
  Counter& packets_late_metric_;
  Counter& buffer_stalls_metric_;
  Counter& blocks_read_metric_;
  Counter& blocks_written_metric_;
  Counter& ibtree_reads_metric_;
  Histogram& send_lateness_us_;
  // sim.flow.* counters are cluster-global (no per-MSU prefix): every MSU
  // shares them, and chaos/HA suites assert sim.flow.chunks == 0 to prove
  // the per-packet model ran pure.
  Counter& flow_chunks_metric_;
  Counter& flow_packets_metric_;
  Counter& flow_demotions_metric_;
  Counter& flow_promotions_metric_;
  Counter& flow_refills_metric_;
  // sim.cache.* counters are cluster-global like sim.flow.*: the sharing
  // suites assert on the aggregate interval/prefix hit mix.
  Counter& cache_interval_hits_metric_;
  Counter& cache_prefix_hits_metric_;
  Counter& cache_misses_metric_;
  Counter& cache_insertions_metric_;
  Counter& cache_evictions_metric_;
  // repl.* counters are cluster-global like sim.flow.*: the rebalance suites
  // assert on aggregate copy traffic across the whole fleet.
  Counter& repl_pages_metric_;
  Counter& repl_bytes_metric_;
  Counter& repl_installs_metric_;
  Counter& repl_aborts_metric_;
  Counter& repl_preempts_metric_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_MSU_MSU_H_
