#include "src/net/message.h"

namespace calliope {

const char* AdmissionClassName(AdmissionClass klass) {
  switch (klass) {
    case AdmissionClass::kInteractive:
      return "interactive";
    case AdmissionClass::kStandard:
      return "standard";
    case AdmissionClass::kBulk:
      return "bulk";
  }
  return "standard";
}

namespace {

Bytes StringBytes(const std::string& s) { return Bytes(static_cast<int64_t>(s.size())); }

struct SizeVisitor {
  Bytes operator()(const OpenSessionRequest& m) const {
    return Bytes(16) + StringBytes(m.customer) + StringBytes(m.credential);
  }
  Bytes operator()(const OpenSessionResponse& m) const {
    return Bytes(24) + StringBytes(m.error);
  }
  Bytes operator()(const ListContentRequest&) const { return Bytes(16); }
  Bytes operator()(const ListContentResponse& m) const {
    Bytes size(24);
    for (const auto& item : m.items) {
      size += Bytes(24) + StringBytes(item.name) + StringBytes(item.type);
    }
    return size;
  }
  Bytes operator()(const RegisterPortRequest& m) const {
    Bytes size = Bytes(32) + StringBytes(m.port_name) + StringBytes(m.type_name) +
                 StringBytes(m.node);
    for (const auto& component : m.component_ports) {
      size += Bytes(8) + StringBytes(component);
    }
    return size;
  }
  Bytes operator()(const UnregisterPortRequest& m) const {
    return Bytes(16) + StringBytes(m.port_name);
  }
  Bytes operator()(const PlayRequest& m) const {
    return Bytes(17) + StringBytes(m.content) + StringBytes(m.display_port);
  }
  Bytes operator()(const PlayResponse& m) const { return Bytes(32) + StringBytes(m.error); }
  Bytes operator()(const RecordRequest& m) const {
    return Bytes(32) + StringBytes(m.content_name) + StringBytes(m.type_name) +
           StringBytes(m.display_port);
  }
  Bytes operator()(const RecordResponse& m) const { return Bytes(32) + StringBytes(m.error); }
  Bytes operator()(const DeleteContentRequest& m) const {
    return Bytes(16) + StringBytes(m.content);
  }
  Bytes operator()(const LoadFastScanRequest& m) const {
    return Bytes(16) + StringBytes(m.content) + StringBytes(m.fast_forward_file) +
           StringBytes(m.fast_backward_file);
  }
  Bytes operator()(const SimpleResponse& m) const { return Bytes(16) + StringBytes(m.error); }
  Bytes operator()(const MsuStartGroup& m) const {
    Bytes size;
    for (const MsuStreamSpec& spec : m.streams) {
      size += Bytes(112) + StringBytes(spec.file) + StringBytes(spec.protocol) +
              StringBytes(spec.client_node) + StringBytes(spec.fast_forward_file) +
              StringBytes(spec.fast_backward_file);
      for (const SharedMemberSpec& member : spec.shared_members) {
        size += MemberBytes(member);
      }
    }
    return size;
  }
  Bytes operator()(const SharedMemberSplit& m) const {
    return Bytes(64) + StringBytes(m.msu_node);
  }
  Bytes operator()(const MsuStartGroupResponse& m) const {
    return Bytes(16) + StringBytes(m.error);
  }
  Bytes operator()(const MsuRegisterRequest& m) const {
    return Bytes(48) + StringBytes(m.msu_node) +
           Bytes(static_cast<int64_t>(m.active_streams.size()) * 8);
  }
  Bytes operator()(const MsuRegisterResponse& m) const {
    return Bytes(32) + StringBytes(m.error) +
           Bytes(static_cast<int64_t>(m.stale_streams.size()) * 8);
  }
  Bytes operator()(const StreamTerminated& m) const { return Bytes(56) + StringBytes(m.file); }
  Bytes operator()(const StreamProgressReport& m) const {
    return Bytes(16) + StringBytes(m.msu_node) +
           Bytes(static_cast<int64_t>(m.entries.size()) * 16);
  }
  Bytes operator()(const PendingRequestFailed& m) const {
    return Bytes(16) + StringBytes(m.error);
  }
  Bytes operator()(const VcrCommand&) const { return Bytes(32); }
  Bytes operator()(const VcrAck& m) const { return Bytes(16) + StringBytes(m.error); }
  Bytes operator()(const MsuDeleteFile& m) const { return Bytes(16) + StringBytes(m.file); }
  Bytes operator()(const StreamGroupInfo& m) const {
    return Bytes(24) + StringBytes(m.msu_node) +
           Bytes(static_cast<int64_t>(m.members.size()) * 16);
  }
  Bytes operator()(const MsuPrepareCopy& m) const { return Bytes(32) + StringBytes(m.file); }
  Bytes operator()(const MsuPrepareCopyResponse& m) const {
    return Bytes(40) + StringBytes(m.error);
  }
  Bytes operator()(const MsuBeginCopy& m) const {
    return Bytes(64) + StringBytes(m.content) + StringBytes(m.source_node) +
           StringBytes(m.source_file) + StringBytes(m.replica_file);
  }
  Bytes operator()(const MsuAbortCopy&) const { return Bytes(24); }
  Bytes operator()(const ReplPullRequest&) const { return Bytes(24); }
  Bytes operator()(const ReplPullResponse& m) const {
    // The bulk page payload rides in `page_bytes` — this is what makes a
    // replica copy cost real simulated network time.
    return Bytes(32) + StringBytes(m.error) + m.page_bytes;
  }
  Bytes operator()(const ReplicaInstalled& m) const {
    return Bytes(40) + StringBytes(m.msu_node) + StringBytes(m.content) + StringBytes(m.file);
  }
  Bytes operator()(const ReplicaCopyFailed& m) const {
    return Bytes(16) + StringBytes(m.msu_node) + StringBytes(m.error);
  }
  Bytes operator()(const ReplAppendRequest& m) const {
    Bytes size(48);
    for (const ReplRecord& record : m.records) {
      size += ReplRecordSize(record);
    }
    return size;
  }
  Bytes operator()(const ReplAppendResponse& m) const {
    return Bytes(32) + StringBytes(m.error);
  }

 private:
  static Bytes MemberBytes(const SharedMemberSpec& member) {
    return Bytes(32) + StringBytes(member.client_node);
  }
  static Bytes PortBytes(const DisplayPortSpec& port) {
    Bytes size = Bytes(24) + StringBytes(port.name) + StringBytes(port.type_name) +
                 StringBytes(port.node);
    for (const auto& component : port.component_ports) {
      size += Bytes(8) + StringBytes(component);
    }
    return size;
  }
  static Bytes RequestBytes(const PendingPlayRequest& request) {
    // +9: the admission class byte and the enqueue stamp.
    return Bytes(57) + StringBytes(request.content) + StringBytes(request.type_name) +
           StringBytes(request.prefer_msu) + PortBytes(request.port) +
           Bytes(static_cast<int64_t>(request.start_offsets.size()) * 8);
  }
  static Bytes ReplRecordSize(const ReplRecord& record) {
    struct RecordVisitor {
      Bytes operator()(const ReplSessionOpened& r) const {
        return Bytes(24) + StringBytes(r.customer);
      }
      Bytes operator()(const ReplSessionClosed&) const { return Bytes(16); }
      Bytes operator()(const ReplPortRegistered& r) const {
        return Bytes(16) + PortBytes(r.port);
      }
      Bytes operator()(const ReplPortUnregistered& r) const {
        return Bytes(16) + StringBytes(r.port_name);
      }
      Bytes operator()(const ReplMsuUp& r) const { return Bytes(40) + StringBytes(r.node); }
      Bytes operator()(const ReplMsuDown& r) const { return Bytes(8) + StringBytes(r.node); }
      Bytes operator()(const ReplStreamStarted& r) const {
        return Bytes(80) + StringBytes(r.msu) + StringBytes(r.content_item);
      }
      Bytes operator()(const ReplGroupStarted& r) const {
        return Bytes(8) + RequestBytes(r.request);
      }
      Bytes operator()(const ReplStreamEnded&) const { return Bytes(24); }
      Bytes operator()(const ReplGroupEnded&) const { return Bytes(16); }
      Bytes operator()(const ReplSharedGroupFormed& r) const {
        return Bytes(48) + StringBytes(r.msu) + StringBytes(r.content) + StringBytes(r.file);
      }
      Bytes operator()(const SharedMemberSplit& m) const { return SizeVisitor{}(m); }
      Bytes operator()(const ReplBatchJoined& r) const { return RequestBytes(r.request); }
      Bytes operator()(const ReplBatchFlushed& r) const { return StringBytes(r.content); }
      Bytes operator()(const ReplPendingPushed& r) const {
        return Bytes(8) + RequestBytes(r.request);
      }
      Bytes operator()(const ReplPendingPopped&) const { return Bytes(16); }
      Bytes operator()(const ReplPendingReordered&) const { return Bytes(8); }
      Bytes operator()(const ReplReplicationStarted& r) const {
        return Bytes(48) + StringBytes(r.content) + StringBytes(r.source_msu) +
               StringBytes(r.source_file) + StringBytes(r.target_msu) +
               StringBytes(r.replica_file);
      }
      Bytes operator()(const ReplReplicationEnded&) const { return Bytes(24); }
      Bytes operator()(const ReplProgress& r) const {
        return Bytes(8) + Bytes(static_cast<int64_t>(r.entries.size()) * 16);
      }
    };
    return std::visit(RecordVisitor{}, record);
  }
};

struct NameVisitor {
  const char* operator()(const OpenSessionRequest&) const { return "OpenSessionRequest"; }
  const char* operator()(const OpenSessionResponse&) const { return "OpenSessionResponse"; }
  const char* operator()(const ListContentRequest&) const { return "ListContentRequest"; }
  const char* operator()(const ListContentResponse&) const { return "ListContentResponse"; }
  const char* operator()(const RegisterPortRequest&) const { return "RegisterPortRequest"; }
  const char* operator()(const UnregisterPortRequest&) const { return "UnregisterPortRequest"; }
  const char* operator()(const PlayRequest&) const { return "PlayRequest"; }
  const char* operator()(const PlayResponse&) const { return "PlayResponse"; }
  const char* operator()(const RecordRequest&) const { return "RecordRequest"; }
  const char* operator()(const RecordResponse&) const { return "RecordResponse"; }
  const char* operator()(const DeleteContentRequest&) const { return "DeleteContentRequest"; }
  const char* operator()(const LoadFastScanRequest&) const { return "LoadFastScanRequest"; }
  const char* operator()(const SimpleResponse&) const { return "SimpleResponse"; }
  const char* operator()(const MsuStartGroup&) const { return "MsuStartGroup"; }
  const char* operator()(const MsuStartGroupResponse&) const { return "MsuStartGroupResponse"; }
  const char* operator()(const MsuRegisterRequest&) const { return "MsuRegisterRequest"; }
  const char* operator()(const MsuRegisterResponse&) const { return "MsuRegisterResponse"; }
  const char* operator()(const StreamTerminated&) const { return "StreamTerminated"; }
  const char* operator()(const StreamProgressReport&) const { return "StreamProgressReport"; }
  const char* operator()(const PendingRequestFailed&) const { return "PendingRequestFailed"; }
  const char* operator()(const VcrCommand&) const { return "VcrCommand"; }
  const char* operator()(const VcrAck&) const { return "VcrAck"; }
  const char* operator()(const MsuDeleteFile&) const { return "MsuDeleteFile"; }
  const char* operator()(const StreamGroupInfo&) const { return "StreamGroupInfo"; }
  const char* operator()(const SharedMemberSplit&) const { return "SharedMemberSplit"; }
  const char* operator()(const MsuPrepareCopy&) const { return "MsuPrepareCopy"; }
  const char* operator()(const MsuPrepareCopyResponse&) const { return "MsuPrepareCopyResponse"; }
  const char* operator()(const MsuBeginCopy&) const { return "MsuBeginCopy"; }
  const char* operator()(const MsuAbortCopy&) const { return "MsuAbortCopy"; }
  const char* operator()(const ReplPullRequest&) const { return "ReplPullRequest"; }
  const char* operator()(const ReplPullResponse&) const { return "ReplPullResponse"; }
  const char* operator()(const ReplicaInstalled&) const { return "ReplicaInstalled"; }
  const char* operator()(const ReplicaCopyFailed&) const { return "ReplicaCopyFailed"; }
  const char* operator()(const ReplAppendRequest&) const { return "ReplAppendRequest"; }
  const char* operator()(const ReplAppendResponse&) const { return "ReplAppendResponse"; }
};

}  // namespace

Bytes WireSize(const MessageBody& body) { return std::visit(SizeVisitor{}, body); }

Bytes WireSize(const Envelope& envelope) {
  // TCP/IP headers, RPC framing, and the ack segment the reliable stream
  // generates per message.
  return Bytes(150) + WireSize(envelope.body);
}

const char* MessageName(const MessageBody& body) { return std::visit(NameVisitor{}, body); }

}  // namespace calliope
