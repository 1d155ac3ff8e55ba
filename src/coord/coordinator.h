// The Calliope Coordinator: global resource manager and the system's single
// point of contact (§2.2).
//
// Non-real-time duties only: it authenticates clients, serves the table of
// contents, registers display ports, allocates MSU disk bandwidth and disk
// space, forms stream groups for composite types (all members on one MSU, so
// VCR commands start and stop them together), queues requests that cannot be
// satisfied yet, and detects MSU failures through broken TCP connections.
// Once a stream is scheduled the client talks to the MSU directly; the
// Coordinator only hears about it again at termination.
//
// With HaConfig.enabled two Coordinators form a warm-standby pair: the
// primary ships an operation log to the standby (see replication.h), and an
// epoch-fenced lease protocol governs takeover. The replicated state is one
// ReplicatedState value, and every change to it is one oplog record that
// Apply writes — the primary through Replicate, the standby on receipt — so
// the two copies cannot drift, and a test can check that they did not by
// comparing the two values. HA member functions are defined in
// replication.cc.
#ifndef CALLIOPE_SRC_COORD_COORDINATOR_H_
#define CALLIOPE_SRC_COORD_COORDINATOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/coord/catalog.h"
#include "src/coord/replication.h"
#include "src/hw/machine.h"
#include "src/ibtree/ibtree.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/place/ledger.h"
#include "src/place/policy.h"
#include "src/rebalance/planner.h"
#include "src/sim/condition.h"
#include "src/sim/simulator.h"

namespace calliope {

// Popularity-aware stream sharing (DESIGN §5.6). Disabled by default: with
// `enabled == false` the Coordinator's admission path is byte-identical to
// the pre-sharing behavior, which is what the determinism/chaos suites pin.
struct SharingConfig {
  SharingConfig() = default;

  bool enabled = false;
  // Per-title popularity EWMA half-life; a bump decays by half every
  // `popularity_halflife` of simulated time. A title whose EWMA reaches
  // kHotThreshold counts as hot: new delivery streams pin its prefix pages in
  // the serving MSU's page cache.
  SimTime popularity_halflife = SimTime::Seconds(60);
};

// SLO-driven traffic control (DESIGN §5.9). Disabled by default: with
// `enabled == false` the pending queue stays one classless FIFO and no
// governor runs, byte-identical to the pre-traffic-control admission path.
// Enabled, each request's AdmissionClass buys it a bounded queue slot, a
// class deadline, retry priority (interactive > standard > bulk) and
// shedding protection — the saturation governor never sheds interactive
// traffic and pauses background rebalancing before touching any viewer.
struct TrafficControlConfig {
  TrafficControlConfig() = default;

  bool enabled = false;
  // Bound on the bulk class's pending queue (the interactive and standard
  // queues hold 64 and 32): a request arriving to a full class queue is
  // rejected immediately (reject-newest) instead of deepening the backlog.
  // Zero = unbounded.
  int bulk_queue_cap = 8;
  // Per-class queue deadlines; zero falls back to
  // CoordinatorParams::pending_deadline. Interactive waits the least: a
  // channel surfer who has not seen frames in 10 s has already surfed away.
  SimTime interactive_deadline = SimTime::Seconds(10);
  SimTime standard_deadline = SimTime::Seconds(30);
  SimTime bulk_deadline = SimTime::Seconds(120);
};

struct CoordinatorParams {
  int listen_port = 5000;
  // CPU cost of handling one scheduling request (authentication, catalog
  // lookups, placement decision, bookkeeping). Calibrated so the §3.3 load
  // test (60 req/s) puts the Coordinator near 14% CPU.
  SimTime request_compute = SimTime::Micros(900);
  // Deliverable per-disk bandwidth budget used for admission accounting
  // (Table 1: a Barracuda under concurrent load sustains ~2.4 MB/s).
  DataRate disk_budget = DataRate::MegabytesPerSec(2.35);
  // Placement policy name (see PlacementPolicyRegistry::WithBuiltins);
  // unknown names fall back to the historical least-loaded behavior.
  std::string placement_policy = "least-loaded";
  // Warm-standby pairing; disabled by default (single Coordinator).
  HaConfig ha;
  // Stream sharing; disabled by default. Works with or without HA: shared
  // groups, batches and member splits are oplog records like any admission,
  // so a standby takeover keeps every group and open batch.
  SharingConfig sharing;
  // Background hot-title replication (DESIGN §5.8); disabled by default.
  // Works with or without HA: in-flight copy ops are oplog-shipped, so a
  // standby takeover keeps the plan.
  RebalanceConfig rebalance;
  // How long a request may sit in the pending queue before it is expired
  // with an explicit PendingRequestFailed notification (zero disables
  // expiry). On by default with a generous allowance: the historical
  // behavior — a client waiting forever for a title that stays saturated,
  // with no notification — was a bug, not a feature.
  SimTime pending_deadline = SimTime::Seconds(600);
  // SLO-driven admission classes + load shedding (DESIGN §5.9); disabled by
  // default.
  TrafficControlConfig traffic;
};

class Coordinator {
 public:
  // HA pairs share one Catalog instance — the paper's durable database, which
  // both coordinators mount. Publishes admission/failover/ledger instruments
  // into `metrics` and scheduling events into `trace`; both must outlive the
  // Coordinator. Instrument names start with "coord", or "coord2" for a
  // Coordinator that starts as an HA standby, so the pair stays
  // distinguishable.
  Coordinator(Machine& machine, NetNode& node, std::shared_ptr<Catalog> catalog,
              MetricsRegistry& metrics, TraceRecorder& trace,
              CoordinatorParams params = CoordinatorParams());

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  Catalog& catalog() { return *catalog_; }
  const CoordinatorParams& params() const { return params_; }

  // Crash / recovery for fault-tolerance experiments. A crash loses all
  // in-memory scheduling state (sessions, active streams, pending queue,
  // ledger); the catalog — the paper's durable database — survives. Without
  // a standby, restart rebuilds the ledger from MSU re-registrations (MSUs
  // reconnect on their own; clients must open new sessions). With HA enabled
  // a restarted Coordinator rejoins as the standby of whoever took over.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  // ---- introspection for tests, benches and examples ----
  bool MsuUp(const std::string& node) const;
  size_t msu_count() const { return state_.ledger.msus().size(); }
  size_t active_stream_count() const { return state_.active_streams.size(); }
  size_t pending_request_count() const { return state_.pending.size(); }
  int64_t requests_handled() const { return requests_handled_; }
  DataRate DiskLoad(const std::string& msu, int disk) const;
  Bytes MsuFreeSpace(const std::string& msu) const;
  const ResourceLedger& ledger() const { return state_.ledger; }
  const char* placement_policy_name() const { return policy_->name(); }
  // Background copies currently in flight (rebalancing, DESIGN §5.8).
  size_t inflight_replication_count() const { return state_.repl_ops.size(); }

  // ---- HA introspection ----
  bool is_primary() const { return !params_.ha.enabled || role_ == HaRole::kPrimary; }
  int64_t ha_epoch() const { return epoch_; }
  // Standby: true once a snapshot from the current primary has been applied.
  bool ha_joined() const { return joined_; }
  int64_t takeover_count() const { return takeovers_count_; }
  // Queued requests dropped for good (client notified where possible).
  int64_t requests_lost() const { return requests_lost_count_; }
  // Queued requests expired past their queue deadline (subset of lost).
  int64_t requests_expired() const { return requests_expired_count_; }
  // Primary: a joined standby has acknowledged every record appended so far,
  // so its replicated state equals ours.
  bool standby_in_sync() const { return peer_joined_ && oplog_acked_ == oplog_appended_; }
  // Requests being launched (retries, shared-batch waiters, split members,
  // shed requests trying a cache attach) whose outcome record has not been
  // applied.
  size_t inflight_retry_count() const { return state_.repl_in_flight.size(); }
  // The replicated state as oplog records: the full install a joining
  // standby receives.
  std::vector<ReplRecord> Snapshot() const;

  // ---- traffic control (DESIGN §5.9) ----
  // Saturation probe consulted by the shedding governor: returns true while
  // the watched SLO monitor is breaching. Installation wires this to
  // MetricsSampler::SloBreaching; unset, the governor never sheds.
  void SetOverloadProbe(std::function<bool()> probe) { overload_probe_ = std::move(probe); }
  // True while the governor is actively shedding (between an overload
  // episode's first breaching tick and its clear).
  bool shedding_active() const { return shed_active_; }
  // Queued requests currently waiting in `klass`.
  size_t pending_count_for(AdmissionClass klass) const;

  // ---- the replicated state (DESIGN §5.4) ----
  // The wire structs double as the in-memory bookkeeping so the oplog can
  // ship them verbatim (field sets are identical by construction).
  using DisplayPort = DisplayPortSpec;
  using PendingRequest = PendingPlayRequest;
  // One admitted stream with its ledger hold's terms.
  using ActiveStream = ReplStreamStarted;
  // One live shared delivery group, keyed by its delivery stream id. Members
  // are ordinary ActiveStream entries (their kNoDisk ledger holds charge
  // NIC + cache memory only), so progress reports and failover reuse the
  // unique-stream machinery; this record exists for attach decisions and the
  // groups gauge.
  using SharedGroup = ReplSharedGroupFormed;
  // One in-flight background copy (DESIGN §5.8).
  using ReplOp = ReplReplicationStarted;

  struct SessionInfo {
    SessionInfo() = default;

    SessionId id = 0;
    std::string customer;
    bool admin = false;
    std::map<std::string, DisplayPort> ports;

    bool operator==(const SessionInfo&) const = default;
  };

  // Everything Apply writes, and nothing else. Connection bindings are not
  // in it: the primary binds live connections and the standby has none.
  struct ReplicatedState {
    ReplicatedState() = default;

    std::map<SessionId, SessionInfo> sessions;
    std::map<StreamId, ActiveStream> active_streams;
    std::map<GroupId, std::vector<StreamId>> groups;
    // The request that started each live group, kept so a failed MSU's
    // groups can be re-placed; erased when the group ends normally.
    std::map<GroupId, PendingRequest> group_requests;
    std::deque<PendingRequest> pending;
    // Requests being launched whose outcome has not been logged yet:
    // retries, flushed shared-batch waiters, split members' re-admissions
    // and shed requests trying a cache attach. Re-queued on takeover
    // (zero-amnesia for a crash mid-launch).
    std::vector<PendingRequest> repl_in_flight;
    // Stream sharing (empty unless SharingConfig::enabled).
    std::map<StreamId, SharedGroup> shared_groups;
    std::map<std::string, std::vector<PendingRequest>> share_batches;  // title -> open batch
    // Background copies in flight (empty unless RebalanceConfig::enabled).
    std::map<int64_t, ReplOp> repl_ops;
    ResourceLedger ledger;

    bool operator==(const ReplicatedState&) const = default;
  };
  // Equal on a primary and its in-sync standby.
  const ReplicatedState& replicated_state() const { return state_; }

 private:
  // ---- wiring ----
  // Publishes every tally by pull; a feature's family only when it is on.
  void PublishMetrics();
  void OnAccept(TcpConn* conn);
  Co<MessageBody> Dispatch(TcpConn* conn, MessageArg body);
  void OnConnClosed(TcpConn* conn);

  // ---- client request handlers ----
  Co<MessageBody> HandleOpenSession(TcpConn* conn, const OpenSessionRequest& request);
  Co<MessageBody> HandleListContent(const ListContentRequest& request);
  Co<MessageBody> HandleRegisterPort(TcpConn* conn, const RegisterPortRequest& request);
  Co<MessageBody> HandleUnregisterPort(TcpConn* conn, const UnregisterPortRequest& request);
  Co<MessageBody> HandlePlay(TcpConn* conn, const PlayRequest& request);
  Co<MessageBody> HandleRecord(TcpConn* conn, const RecordRequest& request);
  Co<MessageBody> HandleDelete(TcpConn* conn, const DeleteContentRequest& request);
  Co<MessageBody> HandleLoadFastScan(TcpConn* conn, const LoadFastScanRequest& request);

  // ---- MSU-facing ----
  Co<MessageBody> HandleMsuRegister(TcpConn* conn, const MsuRegisterRequest& request);
  void HandleStreamTerminated(const StreamTerminated& note);
  void HandleProgressReport(const StreamProgressReport& report);
  // Takes `node` by value: callers may pass a key of msu_conns_, which it
  // erases.
  void MarkMsuDown(std::string node);
  // The MSU's live control connection, or nullptr (none on a standby).
  TcpConn* MsuConn(const std::string& node) const;

  // ---- stream sharing (DESIGN §5.6) ----
  // True when `request` can ride a shared delivery group: sharing on, a
  // non-composite playback of an existing, fully-recorded title.
  bool SharingEligible(const PendingRequest& request) const;
  // Bumps the title's decayed popularity EWMA by one (a request arrived).
  void BumpPopularity(const std::string& content);
  bool IsHot(const std::string& content) const;
  // Live shared group on an up MSU whose playback position trails within the
  // cache horizon, or nullptr.
  const SharedGroup* FindAttachTarget(const std::string& content) const;
  // Planner: admits `request` as a cache-fed solo stream trailing `target`
  // (no disk bandwidth; NIC + interval-cache bytes on the serving MSU).
  Co<Status> StartCacheAttach(PendingRequest request, SharedGroup target);
  // Closes the batch for `content` after the batch window, then starts one
  // delivery stream fanning out to every waiter still holding a live session.
  Task FlushShareBatch(std::string content);
  // Planner for a flushed batch. A group that cannot start degrades: its
  // waiters queue as unique streams (an MSU that has not redialed since a
  // takeover reopens the batch instead).
  Co<void> StartSharedGroup(std::string content, std::vector<PendingRequest> waiters);
  // A member VCR op split it out of its shared group on the MSU; release the
  // member's shared hold and re-admit it as a solo stream at the split offset.
  Co<MessageBody> HandleSharedMemberSplit(const SharedMemberSplit& split);

  // ---- background rebalancing (DESIGN §5.8) ----
  // Periodic planner tick: snapshot → PlanRebalance → execute. Runs on every
  // coordinator with rebalancing enabled but only acts while primary.
  Task RebalanceLoop();
  RebalanceSnapshot BuildRebalanceSnapshot() const;
  // The title's popularity EWMA decayed to now (same math as IsHot).
  double DecayedPopularity(const std::string& content) const;
  // Executes one planned copy: source PrepareCopy → target BeginCopy, then
  // registers the op, takes its ledger holds and logs ReplReplicationStarted.
  // Any refusal just skips the copy until a later tick.
  Co<void> StartReplication(CopyAction action);
  // Drops a cold dynamic replica: catalog first (no new admission lands on
  // it), then the MSU file.
  Co<void> ExecuteDemotion(DemoteAction action);
  void HandleReplicaInstalled(const ReplicaInstalled& note);
  void HandleReplicaCopyFailed(const ReplicaCopyFailed& note);
  // Forgets op `op_id`: refunds its ledger holds, logs ReplReplicationEnded
  // and tells both ends to stop (idempotent; dead MSUs are skipped).
  void AbortReplication(int64_t op_id, const std::string& reason);
  Task SendAbortCopy(std::string msu_node, int64_t op_id);
  Task SendDeleteFile(std::string msu_node, std::string file);
  // Every in-flight copy reading from or writing to `msu_node` dies with it.
  void AbortReplicationsTouching(const std::string& msu_node);

  // ---- scheduling core ----
  // What a planner hands Launch: the MSU, the start message with its ids
  // left zero, one ledger hold per disk stream and per shared viewer (in the
  // order Launch mints their stream ids: each stream, then its shared
  // members), and what to log once the MSU acks.
  struct LaunchPlan {
    LaunchPlan() = default;

    std::string msu;
    MsuStartGroup start;  // group zero: a shared delivery group, minted at launch
    std::vector<ActiveStream> streams;
    std::optional<SharedGroup> shared;      // a shared launch's group record
    std::vector<PendingRequest> requests;   // one ReplGroupStarted each
    std::vector<ContentRecord> recordings;  // catalog entries a recording adds
  };
  // The one launch path: every admission starts its whole group on its MSU
  // in one all-or-none call. Reserves the plan's holds, mints its ids, sends
  // the one MsuStartGroup and, on the ack, logs every stream, the shared
  // group and each ReplGroupStarted with no await in between. Returns
  // kResourceExhausted when the MSU has no connection, the ledger's error
  // when the reservation fails, and kInternal when the MSU refuses (the
  // reservation is refunded).
  Co<Status> Launch(LaunchPlan plan);
  // Planner for a (possibly composite) request: resolve, place every
  // component on one MSU, launch. Solo plays, recordings, retries,
  // failovers and split re-admissions all come through here. Returns
  // kResourceExhausted when no MSU currently qualifies (the caller queues
  // the request).
  Co<Status> TryStartGroup(const PendingRequest& request);
  // Settles a launch that did not start: a kResourceExhausted one waits in
  // the queue if its class has room; anything else is dropped for good.
  void RequeueOrDrop(PendingRequest request, Status outcome);
  // Drops a request for good: pops it from the queue and the in-flight
  // list, counts it lost and tells its client.
  void DropRequest(PendingRequest request, const Status& error);
  Task RetryPendingQueue();
  // The single entrance to the pending queue: stamps the first enqueue time,
  // enforces the per-class queue cap, logs ReplPendingPushed and arms the
  // expiry sweep. Returns false when the class queue is full (the caller
  // rejects the request explicitly — nothing was queued). Re-queues after a
  // failed retry pass `requeue` so they keep the original stamp and bypass
  // the cap (the request already held a slot this pass).
  bool EnqueuePending(PendingRequest request, bool requeue = false);
  // Queue deadline for a class: the per-class override when traffic control
  // is on, else CoordinatorParams::pending_deadline. Zero = no deadline.
  SimTime QueueDeadlineFor(AdmissionClass klass) const;
  int QueueCapFor(AdmissionClass klass) const;
  // (Re)arms the one-shot expiry event at the earliest pending deadline;
  // cancels it when the queue is empty or expiry is disabled.
  void ScheduleExpirySweep();
  // Expires every request past its deadline: explicit PendingRequestFailed,
  // `coord.requests.expired`, then re-arms for the next deadline.
  void RunExpirySweep();
  // Saturation governor (traffic control only): while the overload probe
  // reports an SLO breach, pause/abort background rebalancing first, then
  // shed queued bulk/standard requests newest-first. Interactive requests
  // are never shed.
  Task ShedGovernorLoop();
  // Sheds one queued (parked) request: with sharing on it tries a
  // cache-horizon attach before the explicit rejection.
  Co<void> ShedRequest(PendingRequest request);
  // Replica-aware failover: re-places one interrupted playback group on the
  // surviving MSUs, resuming near the last known media offsets.
  Task FailoverGroup(PendingRequest request);
  // Tells the session's client that a queued/migrating group died for good.
  Task NotifyRequestFailed(PendingRequest request, Status error);
  Result<SessionInfo*> FindSession(SessionId id);
  // Resolves the atomic (item, port) component pairs of a request.
  struct Component {
    std::string item_name;  // catalog item ("sem1.0") — or new item for records
    std::string file_name;
    std::string type_name;
    DisplayPort port;
  };
  Result<std::vector<Component>> ResolveComponents(const PendingRequest& request,
                                                   SessionInfo& session);
  // Reduces a resolved request to the policy's input: per-component rates,
  // space estimates and candidate copies.
  Result<PlacementSpec> BuildPlacementSpec(const PendingRequest& request,
                                           const std::vector<Component>& components);
  // Admission outcome bookkeeping shared by the play/record/retry paths:
  // bumps the right counter and emits an "admit" span for the decision.
  void RecordAdmission(const char* kind, const PendingRequest& request, const Status& outcome,
                       SimTime start);

  // Epoch stamped on data-path messages and session replies (zero without HA).
  int64_t wire_epoch() const { return params_.ha.enabled ? epoch_ : 0; }

  // ---- HA / log shipping (definitions in replication.cc) ----
  // Called from the constructor when params_.ha.enabled.
  void StartHa();
  void BecomeStandby();
  // The one writer of replicated state on the primary: Apply, then append
  // the record to the outgoing oplog (HA only). A non-primary refuses.
  void Replicate(ReplRecord record, ResourceLedger::Txn* txn = nullptr);
  // Blocks until the standby acked the log through `target`. True: flushed
  // (or running solo, peer dead); false: we lost the primaryship meanwhile.
  Co<bool> SyncReplicate(int64_t target);
  Task ReplicationLoop();
  Task StandbyWatchdog();
  Co<MessageBody> HandleReplAppend(TcpConn* conn, const ReplAppendRequest& request);
  // Writes one record into the replicated state. `txn` (primary only) holds
  // the reservation a ReplStreamStarted commits; without it the item is
  // reserved afresh.
  void Apply(const ReplRecord& record, ResourceLedger::Txn* txn = nullptr);
  // Drops the replicated state and every connection binding (not the
  // catalog, not counters); the one reset Crash, StepDown and a snapshot
  // install share.
  void ResetVolatileState();
  // Removes `group`'s parked request from the in-flight list (its outcome
  // record arrived).
  void DropInFlight(GroupId group);
  // Primary lost its lease (partition) or saw a higher epoch: fence ourself.
  void StepDown();
  // Standby assumes the primaryship under `new_epoch`.
  void TakeOver(int64_t new_epoch);

  Machine* machine_;
  NetNode* node_;
  CoordinatorParams params_;
  std::shared_ptr<Catalog> catalog_;
  std::unique_ptr<PlacementPolicy> policy_;
  ReplicatedState state_;
  // Connection bindings, primary only: set when a peer dials in, so they are
  // never part of the replicated state.
  std::map<std::string, TcpConn*> msu_conns_;
  std::map<SessionId, TcpConn*> session_conns_;
  std::map<TcpConn*, SessionId> conn_sessions_;
  // Id mints stay outside the state: they travel in the append header (or,
  // for copies, in Apply), and a launch in flight mints before it logs.
  SessionId next_session_ = 1;
  StreamId next_stream_ = 1;
  GroupId next_group_ = 1;
  int64_t next_repl_op_ = 1;
  // Title popularity EWMA: soft state, rebuilt from new arrivals after a
  // takeover, so it is not replicated.
  struct Popularity {
    Popularity() = default;

    double ewma = 0.0;
    SimTime bumped;  // when `ewma` was last bumped
  };
  std::map<std::string, Popularity> popularity_;
  bool rebalance_loop_running_ = false;
  // ---- traffic-control state (DESIGN §5.9) ----
  std::function<bool()> overload_probe_;
  bool governor_loop_running_ = false;
  bool shed_active_ = false;        // an overload episode is in progress
  bool rebalance_paused_ = false;   // governor paused background copies
  EventToken expiry_token_;         // one-shot queue-deadline sweep
  SimTime expiry_armed_at_;         // when it fires (zero: not armed)
  int64_t requests_expired_count_ = 0;
  int64_t requests_handled_ = 0;
  int64_t requests_lost_count_ = 0;
  bool retry_scheduled_ = false;
  bool crashed_ = false;

  // ---- HA role and oplog bookkeeping: each coordinator's own, never
  // replicated (meaningful only when params_.ha.enabled) ----
  HaRole role_ = HaRole::kPrimary;
  int64_t epoch_ = 1;
  bool joined_ = false;        // standby: applied a snapshot from the primary
  bool peer_joined_ = false;   // primary: the standby holds our snapshot
  bool need_snapshot_ = true;  // primary: next batch must be a full install
  TcpConn* repl_conn_ = nullptr;     // primary: outbound conn to the standby
  TcpConn* repl_in_conn_ = nullptr;  // standby: inbound conn from the primary
  std::vector<ReplRecord> pending_records_;  // primary: unshipped oplog tail
  int64_t oplog_appended_ = 0;  // records appended this primaryship
  int64_t oplog_acked_ = 0;     // records the standby has acknowledged
  SimTime last_append_;   // standby: when the primary last appended
  SimTime last_ack_;      // primary: when the standby last acked
  SimTime standby_since_;
  bool repl_loop_running_ = false;
  bool standby_watchdog_running_ = false;
  int64_t takeovers_count_ = 0;
  std::unique_ptr<Condition> oplog_cond_;  // wakes the shipping loop
  std::unique_ptr<Condition> flush_cond_;  // wakes SyncReplicate waiters

  // Observability. Every count the Coordinator publishes is a plain tally
  // (these, plus the requests_*_ and takeovers_count_ tallies above) pulled
  // at snapshot time; a family whose feature is off is never registered, so
  // its tallies stay unpublished.
  MetricsRegistry& metrics_;
  TraceRecorder& trace_;
  std::string metrics_prefix_;  // "coord", or "coord2" for a starting standby
  std::string trace_track_;
  int64_t admit_accepted_ = 0;
  int64_t admit_rejected_ = 0;
  int64_t admit_queued_ = 0;
  int64_t failover_groups_ = 0;
  int64_t recordings_lost_ = 0;
  int64_t groups_formed_ = 0;    // shared delivery groups started
  int64_t groups_members_ = 0;   // viewers admitted through a batch
  int64_t groups_attaches_ = 0;  // cache-fed trailing-viewer admits
  int64_t groups_splits_ = 0;    // members split out by VCR ops
  int64_t repl_batches_ = 0;
  int64_t repl_records_shipped_ = 0;
  int64_t rebalance_ticks_ = 0;
  int64_t rebalance_copies_started_ = 0;
  int64_t rebalance_copies_installed_ = 0;
  int64_t rebalance_copies_aborted_ = 0;
  int64_t rebalance_preemptions_ = 0;
  int64_t rebalance_demotions_ = 0;
  // Per-class admission tallies, indexed by AdmissionClass value.
  int64_t class_accepted_[kAdmissionClassCount] = {};
  int64_t class_queued_[kAdmissionClassCount] = {};
  int64_t class_shed_[kAdmissionClassCount] = {};
  int64_t class_expired_[kAdmissionClassCount] = {};
  int64_t shed_episodes_ = 0;
  int64_t shed_rejected_ = 0;
  int64_t shed_degraded_ = 0;
  int64_t shed_rebalance_paused_ = 0;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_COORD_COORDINATOR_H_
