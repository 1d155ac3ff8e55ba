#include "src/proto/protocol.h"

namespace calliope {

namespace {
constexpr int64_t kRtpClockHz = 90000;
constexpr SimTime kRtcpInterval = SimTime::Seconds(5);
constexpr Bytes kRtcpPacketSize = Bytes(120);
}  // namespace

SimTime RtpModule::RecordDeliveryOffset(const MediaPacket& packet, SimTime arrival_offset) {
  if (packet.flags & kPacketControl) {
    return arrival_offset;  // control messages keep their arrival spacing
  }
  if (!have_first_) {
    have_first_ = true;
    first_timestamp_ = packet.protocol_timestamp;
    first_arrival_ = arrival_offset;
    return arrival_offset;
  }
  // Media time from the sender's 90 kHz clock, anchored at the first packet:
  // this removes network-induced jitter from the stored schedule.
  const int64_t ticks =
      static_cast<int64_t>(static_cast<uint32_t>(packet.protocol_timestamp - first_timestamp_));
  const auto nanos = static_cast<int64_t>(static_cast<__int128>(ticks) * 1000000000 / kRtpClockHz);
  return first_arrival_ + SimTime(nanos);
}

void RtpModule::OnRecordPacket(const MediaPacket& packet, SimTime arrival_offset,
                               PacketSequence& interleave_out) {
  // Interleave a periodic control (RTCP-style) report into the stream so
  // replay can regenerate the control traffic.
  if (arrival_offset - last_control_ >= kRtcpInterval) {
    last_control_ = arrival_offset;
    MediaPacket control;
    control.delivery_offset = arrival_offset;
    control.size = kRtcpPacketSize;
    control.flags = kPacketControl;
    control.protocol_timestamp = packet.protocol_timestamp;
    interleave_out.push_back(control);
  }
}

bool RtpModule::PlaysToControlPort(const MediaPacket& packet) const {
  return (packet.flags & kPacketControl) != 0;
}

SimTime RawCbrModule::RecordDeliveryOffset(const MediaPacket& packet, SimTime arrival_offset) {
  // Constant-rate streams get an exact computed schedule.
  const SimTime interval = rate_.TransferTime(packet_size_);
  return interval * packets_seen_++;
}

Status ProtocolRegistry::Register(const std::string& name, Factory factory) {
  if (factories_.contains(name)) {
    return AlreadyExistsError("protocol already registered: " + name);
  }
  factories_[name] = std::move(factory);
  return OkStatus();
}

Result<std::unique_ptr<ProtocolModule>> ProtocolRegistry::Instantiate(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return NotFoundError("unknown protocol: " + name);
  }
  return it->second();
}

ProtocolRegistry ProtocolRegistry::WithBuiltins() {
  ProtocolRegistry registry;
  (void)registry.Register("rtp", [] { return std::make_unique<RtpModule>(); });
  (void)registry.Register("vat", [] { return std::make_unique<VatModule>(); });
  (void)registry.Register("raw-cbr", [] {
    return std::make_unique<RawCbrModule>(DataRate::MegabitsPerSec(1.5), Bytes::KiB(4));
  });
  return registry;
}

}  // namespace calliope
