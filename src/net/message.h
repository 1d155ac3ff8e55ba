// Control-protocol messages exchanged between clients, the Coordinator and
// MSUs. The components run inside one simulation, so messages travel as C++
// structs; WireSize() estimates charge the simulated network realistically.
//
// IMPORTANT: none of these types may be an aggregate. GCC 12 miscompiles
// aggregate initialization/copies emitted inside coroutine bodies (SSO string
// pointers and shared_ptr refcounts end up aliasing the coroutine frame), so
// every struct declares constructors. See the parameter rules in src/sim/co.h.
#ifndef CALLIOPE_SRC_NET_MESSAGE_H_
#define CALLIOPE_SRC_NET_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/units.h"

namespace calliope {

using SessionId = int64_t;
using StreamId = int64_t;
using GroupId = int64_t;

// Admission class a play/record request is tagged with (DESIGN §5.9).
// Interactive traffic (VCR-heavy viewers) outranks standard playback, which
// outranks bulk transfers (archive pulls, fleet recordings); the Coordinator's
// traffic-control layer retries queues in class order and sheds from the
// bottom up. The numeric values are wire/ordering contract: lower = higher
// priority.
enum class AdmissionClass : uint8_t {
  kInteractive = 0,
  kStandard = 1,
  kBulk = 2,
};
inline constexpr int kAdmissionClassCount = 3;

// Stable lowercase name ("interactive" / "standard" / "bulk") — metric keys.
const char* AdmissionClassName(AdmissionClass klass);

// ---------- client -> Coordinator ----------

struct OpenSessionRequest {
  OpenSessionRequest() = default;
  OpenSessionRequest(std::string customer_name, std::string customer_credential)
      : customer(std::move(customer_name)), credential(std::move(customer_credential)) {}

  std::string customer;
  std::string credential;
  // Redial after a Coordinator failover: the session id the client held
  // before its connection dropped. A warm standby that replicated the session
  // rebinds it to the new connection instead of opening a fresh one.
  SessionId resume_session = 0;
};

struct OpenSessionResponse {
  OpenSessionResponse() = default;
  OpenSessionResponse(bool success, std::string error_message, SessionId session_id)
      : ok(success), error(std::move(error_message)), session(session_id) {}

  bool ok = false;
  std::string error;
  SessionId session = 0;
  // Coordinator HA epoch the client registered under (0: HA disabled).
  // Notifications carrying an older epoch come from a deposed primary.
  int64_t epoch = 0;
};

struct ListContentRequest {
  ListContentRequest() = default;
  explicit ListContentRequest(SessionId session_id) : session(session_id) {}

  SessionId session = 0;
};

struct ContentInfo {
  ContentInfo() = default;

  std::string name;
  std::string type;
  SimTime duration;
  bool has_fast_scan = false;
};

struct ListContentResponse {
  ListContentResponse() = default;

  bool ok = false;
  std::string error;
  std::vector<ContentInfo> items;
};

// Display ports "associate a string name, a content type, and the socket's
// IP address and port number". Composite ports list component port names.
struct RegisterPortRequest {
  RegisterPortRequest() = default;

  SessionId session = 0;
  std::string port_name;
  std::string type_name;
  std::string node;
  int udp_port = 0;
  int control_port = 0;  // where the client listens for the MSU's VCR conn
  std::vector<std::string> component_ports;  // for composite types
};

struct UnregisterPortRequest {
  UnregisterPortRequest() = default;
  UnregisterPortRequest(SessionId session_id, std::string port)
      : session(session_id), port_name(std::move(port)) {}

  SessionId session = 0;
  std::string port_name;
};

struct PlayRequest {
  PlayRequest() = default;
  PlayRequest(SessionId session_id, std::string content_name, std::string port)
      : session(session_id), content(std::move(content_name)), display_port(std::move(port)) {}

  SessionId session = 0;
  std::string content;
  std::string display_port;
  // Traffic-control class (DESIGN §5.9); ignored unless the Coordinator has
  // traffic control enabled.
  AdmissionClass admission_class = AdmissionClass::kStandard;
};

struct PlayResponse {
  PlayResponse() = default;
  PlayResponse(bool success, std::string error_message, GroupId group_id, bool was_queued)
      : ok(success), error(std::move(error_message)), group(group_id), queued(was_queued) {}

  bool ok = false;
  std::string error;
  GroupId group = 0;
  bool queued = false;  // no resources yet; Calliope will start it later
};

struct RecordRequest {
  RecordRequest() = default;
  RecordRequest(SessionId session_id, std::string content, std::string type, std::string port,
                SimTime length_estimate)
      : session(session_id),
        content_name(std::move(content)),
        type_name(std::move(type)),
        display_port(std::move(port)),
        estimated_length(length_estimate) {}

  SessionId session = 0;
  std::string content_name;
  std::string type_name;
  std::string display_port;
  SimTime estimated_length;
  // Traffic-control class; recordings default to bulk (a lost recording slot
  // is rescheduleable, a glitched live viewer is not).
  AdmissionClass admission_class = AdmissionClass::kBulk;
};

struct RecordResponse {
  RecordResponse() = default;
  RecordResponse(bool success, std::string error_message, GroupId group_id, bool was_queued)
      : ok(success), error(std::move(error_message)), group(group_id), queued(was_queued) {}

  bool ok = false;
  std::string error;
  GroupId group = 0;
  bool queued = false;
};

struct DeleteContentRequest {
  DeleteContentRequest() = default;
  DeleteContentRequest(SessionId session_id, std::string content_name)
      : session(session_id), content(std::move(content_name)) {}

  SessionId session = 0;
  std::string content;
};

// Administrative: register filtered fast-forward / fast-backward versions of
// existing content (§2.3.1 — produced offline by an administrator).
struct LoadFastScanRequest {
  LoadFastScanRequest() = default;
  LoadFastScanRequest(SessionId session_id, std::string content_name, std::string ff_file,
                      std::string fb_file)
      : session(session_id),
        content(std::move(content_name)),
        fast_forward_file(std::move(ff_file)),
        fast_backward_file(std::move(fb_file)) {}

  SessionId session = 0;
  std::string content;
  std::string fast_forward_file;
  std::string fast_backward_file;
};

struct SimpleResponse {
  SimpleResponse() = default;
  SimpleResponse(bool success, std::string error_message)
      : ok(success), error(std::move(error_message)) {}

  bool ok = false;
  std::string error;
};

// ---------- Coordinator -> MSU ----------

// One viewer of a shared delivery group (DESIGN §5.6): the disk stream fans
// its pages out to every member's display port, and each member keeps its own
// client-facing stream id, group id and VCR control connection.
struct SharedMemberSpec {
  SharedMemberSpec() = default;

  StreamId stream = 0;   // client-facing stream id minted for this member
  GroupId group = 0;     // client-facing group id (one per Play request)
  std::string client_node;
  int client_udp_port = 0;
  int client_control_port = 0;
};

// One disk stream of a launch. A shared delivery stream (DESIGN §5.6) lists
// its viewers in `shared_members` and ignores the client_* fields; every other
// stream delivers to its own component's display port.
struct MsuStreamSpec {
  MsuStreamSpec() = default;

  StreamId stream = 0;
  std::string file;
  std::string protocol;  // protocol extension module name
  DataRate rate;         // bandwidth consumption rate from the content type
  bool record = false;
  SimTime estimated_length;   // for recordings
  int disk_hint = -1;         // which disk holds / should hold the file
  std::string client_node;
  int client_udp_port = 0;
  std::string fast_forward_file;   // optional fast-scan variants
  std::string fast_backward_file;
  // Playback starts this far into the media (failover resumes a migrated
  // stream near where its previous MSU died). Zero: start at the beginning.
  SimTime start_offset;
  // Non-empty: a shared delivery group, one disk stream fanned out to these
  // members' display ports. `stream` names the delivery stream whose disk
  // bandwidth the Coordinator reserved.
  std::vector<SharedMemberSpec> shared_members;
  // The title is hot (popularity EWMA over threshold): pin its prefix pages
  // in the MSU's page cache as they are read.
  bool pin_prefix = false;
  // Interval-cache admission: no disk bandwidth was reserved for this stream;
  // its reads should be served from the MSU page cache (trailing another
  // viewer by less than the cache horizon), falling back to disk on a miss.
  bool from_cache = false;
};

// Starts every disk stream of one client group on this MSU, or none of them
// ("Calliope assigns all streams in a group to the same MSU", §2.2). The
// header fields ride in each stream's fixed wire part, so a one-stream launch
// costs what a single-stream start always did.
struct MsuStartGroup {
  MsuStartGroup() = default;

  GroupId group = 0;
  // The group's VCR control connection, dialed at the first stream's client
  // node (shared members each dial their own). Zero: no control connection.
  int client_control_port = 0;
  // Coordinator HA epoch stamped on every command (0: HA disabled). MSUs
  // refuse commands whose epoch is older than the one they registered under,
  // fencing a deposed primary out of the data path.
  int64_t epoch = 0;
  // VCR-split resume: the solo stream a paused member splits into starts in
  // the paused state so the member's later Resume picks up exactly where the
  // shared group left it.
  bool start_paused = false;
  std::vector<MsuStreamSpec> streams;
};

struct MsuStartGroupResponse {
  MsuStartGroupResponse() = default;
  MsuStartGroupResponse(bool success, std::string error_message)
      : ok(success), error(std::move(error_message)) {}

  bool ok = false;
  std::string error;
};

// ---------- MSU -> Coordinator ----------

struct MsuRegisterRequest {
  MsuRegisterRequest() = default;

  std::string msu_node;
  int disk_count = 0;
  Bytes free_space;
  // Outbound NIC capacity for network-path admission (0: unlimited, the
  // pre-NIC-budget behavior; also what minimal test harnesses send).
  DataRate nic_bandwidth;
  // Interval/prefix page-cache budget (0: no cache). The Coordinator's ledger
  // admits cache-served viewers against this instead of disk bandwidth.
  Bytes cache_memory;
  // Warm re-registration: the MSU kept running (and kept its streams) while
  // it was disconnected from the Coordinator — e.g. the primary died and this
  // is the redial against the promoted standby. The Coordinator keeps the
  // MSU's ledger holds instead of resetting the account.
  bool warm = false;
  // With warm: every stream still live on the MSU, so the new primary can
  // reconcile its replicated view against reality.
  std::vector<StreamId> active_streams;
};

struct MsuRegisterResponse {
  MsuRegisterResponse() = default;
  MsuRegisterResponse(bool success, std::string error_message)
      : ok(success), error(std::move(error_message)) {}

  bool ok = false;
  std::string error;
  // Coordinator HA epoch the MSU is now registered under (0: HA disabled).
  int64_t epoch = 0;
  // Streams the MSU reported as live that the Coordinator does not know
  // about (admissions that died with the old primary before replicating).
  // The MSU must quit them locally.
  std::vector<StreamId> stale_streams;
};

struct StreamTerminated {
  StreamTerminated() = default;

  StreamId stream = 0;
  GroupId group = 0;
  std::string file;
  Bytes bytes_moved;
  bool was_recording = false;
  // A recording that sealed its IB-tree and kept its bytes. False means the
  // MSU discarded the partial file; the Coordinator must refund the full
  // estimate and drop the catalog entry.
  bool record_committed = false;
  SimTime recorded_duration;  // media length of a completed recording
  int disk = 0;               // disk the file lives on (for space accounting)
  SimTime last_media_offset;  // playback: media position when the stream ended
};

// Periodic batched note: where each playback stream currently is in its
// media. The Coordinator keeps the latest offset per stream so a failover
// can resume a migrated stream near the position where its MSU died.
struct StreamProgressReport {
  StreamProgressReport() = default;

  struct Entry {
    Entry() = default;
    Entry(StreamId stream_id, SimTime offset) : stream(stream_id), media_offset(offset) {}

    StreamId stream = 0;
    SimTime media_offset;
  };

  std::string msu_node;
  std::vector<Entry> entries;
};

// Coordinator -> MSU: remove a file (content deletion).
struct MsuDeleteFile {
  MsuDeleteFile() = default;
  explicit MsuDeleteFile(std::string file_name) : file(std::move(file_name)) {}

  std::string file;
  int64_t epoch = 0;  // HA epoch fence, as on MsuStartGroup
};

// ---------- background replica copies (rebalancing, DESIGN §5.8) ----------

// Coordinator -> source MSU: admit a rate-limited background read stream
// serving a replica copy of `file`. The source takes a duty-cycle slot on the
// file's home disk (exactly like one extra viewer at `rate`); the target then
// pulls pages over the source's replica pull port. Fails if the disk has no
// free slot — background copies never displace live streams.
struct MsuPrepareCopy {
  MsuPrepareCopy() = default;

  int64_t op = 0;
  std::string file;
  DataRate rate;
  int64_t epoch = 0;  // HA epoch fence, as on MsuStartGroup
};

struct MsuPrepareCopyResponse {
  MsuPrepareCopyResponse() = default;
  MsuPrepareCopyResponse(bool success, std::string error_message)
      : ok(success), error(std::move(error_message)) {}

  bool ok = false;
  std::string error;
  int disk = -1;           // source disk the copy reads from
  int64_t page_count = 0;  // data pages the target must pull
  Bytes file_size;         // payload estimate for target space accounting
  int pull_port = 0;       // TCP port the target dials with ReplPullRequests
};

// Coordinator -> target MSU: pull `source_file` from `source_node` into a
// local `replica_file`, paced to `rate` (one 256 KB page per transfer), and
// commit it as installed content when the last page lands.
struct MsuBeginCopy {
  MsuBeginCopy() = default;

  int64_t op = 0;
  std::string content;  // catalog name, echoed in the install note
  std::string source_node;
  int source_port = 0;
  std::string source_file;
  std::string replica_file;
  DataRate rate;
  int64_t page_count = 0;
  Bytes estimated_size;
  int disk_hint = -1;
  int64_t epoch = 0;
};

// Coordinator -> either end of a copy: stop it (a live admission preempted
// the slot, or the other end died). Idempotent — unknown ops are acked.
struct MsuAbortCopy {
  MsuAbortCopy() = default;

  int64_t op = 0;
  int64_t epoch = 0;
};

// Target MSU -> source MSU, over the source's replica pull port: read one
// page of an in-progress copy.
struct ReplPullRequest {
  ReplPullRequest() = default;

  int64_t op = 0;
  int64_t page_index = 0;
};

struct ReplPullResponse {
  ReplPullResponse() = default;

  bool ok = false;
  std::string error;
  Bytes page_bytes;  // payload bytes charged to the wire
  bool last = false;
  // With `last`: the file's sealed IB-tree image, deep-copied so it cannot
  // dangle if the source deletes the file mid-flight. Opaque to the fabric
  // (net does not depend on ibtree; both ends are MSU code and cast it),
  // same idiom as Datagram::payload.
  std::shared_ptr<const void> image;
};

// Target MSU -> Coordinator: the replica is committed and ready to serve.
struct ReplicaInstalled {
  ReplicaInstalled() = default;

  int64_t op = 0;
  std::string msu_node;
  std::string content;
  std::string file;
  int disk = -1;
  Bytes bytes_copied;
};

// MSU -> Coordinator: the copy died (source crash, duty-cycle preemption by
// a live admission, pull error). Any partial file has been deleted.
struct ReplicaCopyFailed {
  ReplicaCopyFailed() = default;

  int64_t op = 0;
  std::string msu_node;
  std::string error;
};

// ---------- Coordinator -> client (over the session connection) ----------

// A queued play/record request failed permanently during a retry or failover
// pass; no stream will arrive for this group.
struct PendingRequestFailed {
  PendingRequestFailed() = default;
  PendingRequestFailed(GroupId group_id, std::string error_message)
      : group(group_id), error(std::move(error_message)) {}

  GroupId group = 0;
  std::string error;
  // Sender's HA epoch (0: HA disabled). Clients ignore notifications whose
  // epoch is older than the one they are registered under.
  int64_t epoch = 0;
};

// ---------- MSU -> client (over the group's VCR control connection) ----------

// Sent when the MSU is ready to serve a stream group; tells the client which
// MSU owns the group and, for recordings, where to send media packets.
struct StreamGroupInfo {
  StreamGroupInfo() = default;

  struct Member {
    Member() = default;
    Member(StreamId stream_id, int index, bool is_recording)
        : stream(stream_id), component_index(index), recording(is_recording) {}

    StreamId stream = 0;
    int component_index = 0;  // position within the composite type
    bool recording = false;
  };

  GroupId group = 0;
  std::string msu_node;
  int media_udp_port = 0;
  std::vector<Member> members;
};

// ---------- client <-> MSU (VCR control, §2.1) ----------

struct VcrCommand {
  enum class Op { kPlay, kPause, kSeek, kFastForward, kFastBackward, kQuit };

  VcrCommand() = default;

  Op op = Op::kPlay;
  GroupId group = 0;
  SimTime seek_to;  // for kSeek: media-time offset from the beginning
};

struct VcrAck {
  VcrAck() = default;
  VcrAck(bool success, std::string error_message)
      : ok(success), error(std::move(error_message)) {}

  bool ok = false;
  std::string error;
};

// MSU -> Coordinator: a member of a shared delivery group issued a VCR op, so
// the MSU detached it from the fan-out; the Coordinator re-admits the member
// as a solo stream at `media_offset` through the failover/resume machinery
// (paused if the op was kPause, at seek_to if it was kSeek).
struct SharedMemberSplit {
  SharedMemberSplit() = default;
  bool operator==(const SharedMemberSplit&) const = default;

  std::string msu_node;
  StreamId delivery_stream = 0;
  StreamId member_stream = 0;
  GroupId group = 0;            // the member's client-facing group
  SimTime media_offset;         // shared group's position at the split
  Bytes bytes_moved;            // bytes the member received while shared
  VcrCommand::Op op = VcrCommand::Op::kPlay;
  SimTime seek_to;
};

// ---------- Coordinator primary <-> standby (HA replication, Harp-style) ----------

// Wire form of a registered display port — also the primary's oplog record
// payload for port registration (the Coordinator aliases its internal
// DisplayPort bookkeeping to this type).
struct DisplayPortSpec {
  DisplayPortSpec() = default;
  bool operator==(const DisplayPortSpec&) const = default;

  std::string name;
  std::string type_name;
  std::string node;
  int udp_port = 0;
  int control_port = 0;
  std::vector<std::string> component_ports;
};

// Wire form of a queued/admitted play or record request — the Coordinator's
// PendingRequest, replicated verbatim so the standby can retry queued
// requests and re-place failed groups after takeover.
struct PendingPlayRequest {
  PendingPlayRequest() = default;
  bool operator==(const PendingPlayRequest&) const = default;

  SessionId session = 0;
  bool record = false;
  std::string content;
  std::string type_name;   // recordings: content type to create
  SimTime estimated_length;
  DisplayPortSpec port;
  GroupId group = 0;
  // Failover resume offsets, one per component (empty: start at zero).
  std::vector<SimTime> start_offsets;
  // VCR-split resume: the solo stream starts paused (the member paused the
  // shared group, so its replacement must not run ahead of the Resume).
  bool start_paused = false;
  // Placement affinity: try this MSU first (VCR splits stay on the node whose
  // page cache already holds the title; falls back to normal placement).
  std::string prefer_msu;
  // Traffic-control class (DESIGN §5.9). Shipped on the oplog so the standby
  // sheds/retries queued requests in the same order the primary would have.
  AdmissionClass admission_class = AdmissionClass::kStandard;
  // When this request first joined the pending queue (zero: never queued).
  // The queue-deadline sweep expires requests older than the per-class
  // deadline; re-queues after a failed retry keep the original stamp.
  SimTime enqueued_at;
};

// Oplog records. Each is a primitive state delta that Coordinator::Apply
// writes — on the primary as it ships the record, on the standby as it
// receives it. No placement, no RPCs, no catalog writes (the catalog is the
// shared durable database both coordinators mount).
struct ReplSessionOpened {
  ReplSessionOpened() = default;
  bool operator==(const ReplSessionOpened&) const = default;

  SessionId session = 0;
  std::string customer;
  bool admin = false;
};

struct ReplSessionClosed {
  ReplSessionClosed() = default;
  explicit ReplSessionClosed(SessionId id) : session(id) {}
  bool operator==(const ReplSessionClosed&) const = default;

  SessionId session = 0;
};

struct ReplPortRegistered {
  ReplPortRegistered() = default;
  bool operator==(const ReplPortRegistered&) const = default;

  SessionId session = 0;
  DisplayPortSpec port;
};

struct ReplPortUnregistered {
  ReplPortUnregistered() = default;
  bool operator==(const ReplPortUnregistered&) const = default;

  SessionId session = 0;
  std::string port_name;
};

struct ReplMsuUp {
  ReplMsuUp() = default;
  bool operator==(const ReplMsuUp&) const = default;

  std::string node;
  int disk_count = 0;
  Bytes free_space;
  DataRate nic_budget;
  Bytes cache_memory;
  // Mirror of the primary's ledger action: a warm re-registration reattaches
  // the account (holds survive); a cold one resets it (epoch bump).
  bool reattach = false;
};

// Also drops the MSU's shared delivery groups: their fan-out state lived in
// the dead process.
struct ReplMsuDown {
  ReplMsuDown() = default;
  explicit ReplMsuDown(std::string msu) : node(std::move(msu)) {}
  bool operator==(const ReplMsuDown&) const = default;

  std::string node;
};

// One admitted stream and its ledger hold. The Coordinator keeps these as its
// active-stream bookkeeping, so a snapshot ships them verbatim. On the
// primary, applying it commits the next item of the reservation made before
// the MSU was contacted; the standby reserves the same item afresh.
struct ReplStreamStarted {
  ReplStreamStarted() = default;
  bool operator==(const ReplStreamStarted&) const = default;

  StreamId stream = 0;
  GroupId group = 0;
  std::string msu;
  int disk = 0;              // the hold's disk; ResourceLedger::kNoDisk when cache/fan-out fed
  int component = 0;         // index within the group's composite type
  std::string content_item;  // atomic item name
  bool recording = false;
  SessionId session = 0;
  DataRate rate;
  Bytes space;
  Bytes cache;     // interval-cache bytes held by a cache-fed viewer
  SimTime offset;  // playback: last reported media position (failover resume point)
};

// Every member of a client group started: retains the originating request for
// re-placement after MSU loss, and resolves the standby's parked retry.
struct ReplGroupStarted {
  ReplGroupStarted() = default;
  ReplGroupStarted(GroupId id, PendingPlayRequest origin)
      : group(id), request(std::move(origin)) {}
  bool operator==(const ReplGroupStarted&) const = default;

  GroupId group = 0;
  PendingPlayRequest request;
};

struct ReplStreamEnded {
  ReplStreamEnded() = default;
  explicit ReplStreamEnded(StreamId id, Bytes used = Bytes()) : stream(id), space_used(used) {}
  bool operator==(const ReplStreamEnded&) const = default;

  StreamId stream = 0;
  Bytes space_used;  // recordings: bytes kept (refund the rest of the estimate)
};

struct ReplGroupEnded {
  ReplGroupEnded() = default;
  explicit ReplGroupEnded(GroupId id) : group(id) {}
  bool operator==(const ReplGroupEnded&) const = default;

  GroupId group = 0;
};

// A shared delivery group (stream sharing, DESIGN §5.6): one disk stream,
// itself a ReplStreamStarted, fanning out to `member_count` viewers. The
// Coordinator keeps these as its shared-group bookkeeping.
struct ReplSharedGroupFormed {
  ReplSharedGroupFormed() = default;
  bool operator==(const ReplSharedGroupFormed&) const = default;

  StreamId delivery_stream = 0;
  std::string msu;
  int disk = 0;
  std::string content;  // title (atomic item name)
  std::string file;
  DataRate rate;
  SimTime started_at;  // delivery start; playback position ~= Now() - this
  int member_count = 0;
};

// A request joined the open batch for its title; the flush closes the batch
// and parks its waiters until their shared launch's outcome is logged.
struct ReplBatchJoined {
  ReplBatchJoined() = default;
  explicit ReplBatchJoined(PendingPlayRequest waiter) : request(std::move(waiter)) {}
  bool operator==(const ReplBatchJoined&) const = default;

  PendingPlayRequest request;
};

struct ReplBatchFlushed {
  ReplBatchFlushed() = default;
  explicit ReplBatchFlushed(std::string title) : content(std::move(title)) {}
  bool operator==(const ReplBatchFlushed&) const = default;

  std::string content;
};

struct ReplPendingPushed {
  ReplPendingPushed() = default;
  explicit ReplPendingPushed(PendingPlayRequest queued) : request(std::move(queued)) {}
  bool operator==(const ReplPendingPushed&) const = default;

  PendingPlayRequest request;
};

struct ReplPendingPopped {
  ReplPendingPopped() = default;
  ReplPendingPopped(GroupId id, bool retry) : group(id), retrying(retry) {}
  bool operator==(const ReplPendingPopped&) const = default;

  GroupId group = 0;
  // True: popped for a retry whose outcome record follows (the standby parks
  // it until then). False: gone for good (expired, shed, session closed, or
  // the outcome of a launch that failed permanently).
  bool retrying = false;
};

// Traffic control's class order (interactive > standard > bulk), applied to
// the queue at the start of each retry pass; stable within a class.
struct ReplPendingReordered {
  ReplPendingReordered() = default;
  bool operator==(const ReplPendingReordered&) const = default;
};

// A background replica copy launched by the rebalancer: applying it takes one
// ledger hold per end (source and target disk, the replica's space on the
// target), on the primary and the standby alike, and keeps an op
// shadow so a takeover can adopt — or clean up — in-flight copies. The
// Coordinator keeps these as its in-flight copy bookkeeping. The catalog
// location install itself needs no record: the catalog is the shared durable
// database, and the install note redials the promoted primary.
struct ReplReplicationStarted {
  ReplReplicationStarted() = default;
  bool operator==(const ReplReplicationStarted&) const = default;

  int64_t op = 0;
  std::string content;
  std::string source_msu;
  int source_disk = 0;
  std::string source_file;
  std::string target_msu;
  int target_disk = 0;
  std::string replica_file;
  DataRate rate;
  Bytes space;  // estimated replica size, held against the target
};

struct ReplReplicationEnded {
  ReplReplicationEnded() = default;
  ReplReplicationEnded(int64_t id, bool kept) : op(id), installed(kept) {}
  bool operator==(const ReplReplicationEnded&) const = default;

  int64_t op = 0;
  // True: the replica committed, so the target's space stays debited; false:
  // the copy aborted and the space hold is refunded.
  bool installed = false;
};

struct ReplProgress {
  ReplProgress() = default;
  bool operator==(const ReplProgress&) const = default;

  struct Entry {
    Entry() = default;
    Entry(StreamId stream_id, SimTime media_offset)
        : stream(stream_id), offset(media_offset) {}
    bool operator==(const Entry&) const = default;

    StreamId stream = 0;
    SimTime offset;
  };

  std::vector<Entry> entries;
};

// The MSU's SharedMemberSplit note doubles as the record of a member leaving
// its shared group (the member's stream and group end with it, and its solo
// re-admission parks until its outcome is logged).
using ReplRecord =
    std::variant<ReplSessionOpened, ReplSessionClosed, ReplPortRegistered, ReplPortUnregistered,
                 ReplMsuUp, ReplMsuDown, ReplStreamStarted, ReplGroupStarted, ReplStreamEnded,
                 ReplGroupEnded, ReplSharedGroupFormed, SharedMemberSplit, ReplBatchJoined,
                 ReplBatchFlushed, ReplPendingPushed, ReplPendingPopped, ReplPendingReordered,
                 ReplReplicationStarted, ReplReplicationEnded, ReplProgress>;

// One log-shipping batch (doubles as the lease heartbeat when `records` is
// empty). `snapshot` marks a full state install: the standby clears its
// shadow state and replays `records` from scratch. Id counters ride in the
// header so the standby mints the same ids after takeover.
struct ReplAppendRequest {
  ReplAppendRequest() = default;

  int64_t epoch = 0;
  bool snapshot = false;
  int64_t first_seq = 0;  // sequence number of records.front()
  SessionId next_session = 1;
  StreamId next_stream = 1;
  GroupId next_group = 1;
  std::vector<ReplRecord> records;
};

struct ReplAppendResponse {
  ReplAppendResponse() = default;
  ReplAppendResponse(bool success, std::string error_message)
      : ok(success), error(std::move(error_message)) {}

  bool ok = false;
  std::string error;  // "stale epoch": the sender has been deposed
  int64_t applied_seq = 0;
  int64_t epoch = 0;  // responder's view (lets a deposed primary learn the new epoch)
};

using MessageBody =
    std::variant<OpenSessionRequest, OpenSessionResponse, ListContentRequest, ListContentResponse,
                 RegisterPortRequest, UnregisterPortRequest, PlayRequest, PlayResponse,
                 RecordRequest, RecordResponse, DeleteContentRequest, LoadFastScanRequest,
                 SimpleResponse, MsuStartGroup, MsuStartGroupResponse, MsuRegisterRequest,
                 MsuRegisterResponse, StreamTerminated, StreamProgressReport, PendingRequestFailed,
                 VcrCommand, VcrAck, MsuDeleteFile, StreamGroupInfo, SharedMemberSplit,
                 MsuPrepareCopy, MsuPrepareCopyResponse, MsuBeginCopy, MsuAbortCopy,
                 ReplPullRequest, ReplPullResponse, ReplicaInstalled, ReplicaCopyFailed,
                 ReplAppendRequest, ReplAppendResponse>;

struct Envelope {
  Envelope() = default;
  Envelope(uint64_t id, bool response, MessageBody message_body)
      : rpc_id(id), is_response(response), body(std::move(message_body)) {}

  uint64_t rpc_id = 0;
  bool is_response = false;
  MessageBody body;
};

// Non-aggregate carrier for passing a MessageBody into a coroutine by value.
class MessageArg {
 public:
  MessageArg(MessageBody body) : value(std::move(body)) {}  // NOLINT(google-explicit-constructor)
  MessageBody value;
};

// Estimated bytes on the wire (struct payload + strings + headers).
Bytes WireSize(const MessageBody& body);
Bytes WireSize(const Envelope& envelope);

// Debug name of the message alternative.
const char* MessageName(const MessageBody& body);

}  // namespace calliope

#endif  // CALLIOPE_SRC_NET_MESSAGE_H_
