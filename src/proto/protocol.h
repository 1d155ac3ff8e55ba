// Protocol extension modules (§2.3.2).
//
// "An MSU protocol extension module is comprised of two functions. The first
// performs any operations required by the protocol beyond the normal sending
// or receiving of data packets... The MSU calls the second extension function
// during recording to construct a delivery schedule."
//
// Modules ship with the MSU for RTP (separate control port, control messages
// interleaved into the recorded stream, delivery times from sender RTP
// timestamps), VAT audio (arrival-time schedule) and a raw constant-rate
// protocol ("any protocol and/or encoding which can be handled by
// transmitting fixed sized packets at a constant rate").
#ifndef CALLIOPE_SRC_PROTO_PROTOCOL_H_
#define CALLIOPE_SRC_PROTO_PROTOCOL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/media/packet.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace calliope {

class ProtocolModule {
 public:
  virtual ~ProtocolModule() = default;

  virtual std::string_view name() const = 0;

  // --- recording-side extension points -----------------------------------

  // Derives the stored delivery offset for an arriving packet.
  // `arrival_offset` is the packet's arrival time minus the recording start.
  // The default behaviour is the paper's default: use the arrival time.
  virtual SimTime RecordDeliveryOffset(const MediaPacket& packet, SimTime arrival_offset) {
    return arrival_offset;
  }

  // Invoked per recorded packet; a module may emit extra packets to
  // interleave into the stream (RTP interleaves its control messages).
  virtual void OnRecordPacket(const MediaPacket& packet, SimTime arrival_offset,
                              PacketSequence& interleave_out) {}

  // --- playback-side extension points -------------------------------------

  // Routes a stored packet on replay: true sends it back out through the
  // protocol's control port, false through the data port.
  virtual bool PlaysToControlPort(const MediaPacket& packet) const { return false; }

  // True if this protocol uses a second (control) port, like RTP/RTCP.
  virtual bool uses_control_port() const { return false; }

  // For constant-rate protocols the schedule is computed, not stored
  // (§2.2.1); returns the zero rate for variable-rate protocols.
  virtual DataRate constant_rate() const { return DataRate(); }
  virtual bool is_constant_rate() const { return !constant_rate().is_zero(); }
};

// RTP (then an Internet draft): data + control ports; delivery offsets from
// the sender's 90 kHz media timestamps, immune to network-induced jitter.
class RtpModule : public ProtocolModule {
 public:
  std::string_view name() const override { return "rtp"; }
  SimTime RecordDeliveryOffset(const MediaPacket& packet, SimTime arrival_offset) override;
  void OnRecordPacket(const MediaPacket& packet, SimTime arrival_offset,
                      PacketSequence& interleave_out) override;
  bool PlaysToControlPort(const MediaPacket& packet) const override;
  bool uses_control_port() const override { return true; }

 private:
  bool have_first_ = false;
  uint32_t first_timestamp_ = 0;
  SimTime first_arrival_;
  SimTime last_control_;
};

// VAT audio: single port, arrival-time delivery schedule.
class VatModule : public ProtocolModule {
 public:
  std::string_view name() const override { return "vat"; }
};

// Fixed-size packets at a constant rate; the delivery schedule is computed
// from the content type's rate rather than stored.
class RawCbrModule : public ProtocolModule {
 public:
  RawCbrModule(DataRate rate, Bytes packet_size) : rate_(rate), packet_size_(packet_size) {}

  std::string_view name() const override { return "raw-cbr"; }
  DataRate constant_rate() const override { return rate_; }
  SimTime RecordDeliveryOffset(const MediaPacket& packet, SimTime arrival_offset) override;
  Bytes packet_size() const { return packet_size_; }

 private:
  DataRate rate_;
  Bytes packet_size_;
  int64_t packets_seen_ = 0;
};

// Factory registry. "Simple modules can be added if necessary to handle
// different network packet formats" — new protocols register a factory under
// their name; each stream instantiates a fresh module (modules hold
// per-stream recording state).
class ProtocolRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ProtocolModule>()>;

  Status Register(const std::string& name, Factory factory);
  Result<std::unique_ptr<ProtocolModule>> Instantiate(const std::string& name) const;
  bool Contains(const std::string& name) const { return factories_.contains(name); }

  // Registry preloaded with the modules the paper's MSU supports.
  static ProtocolRegistry WithBuiltins();

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_PROTO_PROTOCOL_H_
