// Tests for the protocol extension modules (§2.3.2).
#include <gtest/gtest.h>

#include "src/proto/protocol.h"

namespace calliope {
namespace {

TEST(RegistryTest, BuiltinsPresent) {
  ProtocolRegistry registry = ProtocolRegistry::WithBuiltins();
  EXPECT_TRUE(registry.Contains("rtp"));
  EXPECT_TRUE(registry.Contains("vat"));
  EXPECT_TRUE(registry.Contains("raw-cbr"));
  EXPECT_FALSE(registry.Contains("h264"));
  EXPECT_EQ(registry.Instantiate("nope").status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, NewProtocolsCanBeRegistered) {
  // "Simple modules can be added if necessary."
  class NvModule : public ProtocolModule {
   public:
    std::string_view name() const override { return "nv"; }
  };
  ProtocolRegistry registry = ProtocolRegistry::WithBuiltins();
  ASSERT_TRUE(registry.Register("nv", [] { return std::make_unique<NvModule>(); }).ok());
  EXPECT_EQ(registry.Register("nv", [] { return std::make_unique<NvModule>(); }).code(),
            StatusCode::kAlreadyExists);
  auto module = registry.Instantiate("nv");
  ASSERT_TRUE(module.ok());
  EXPECT_EQ((*module)->name(), "nv");
}

TEST(RegistryTest, EachStreamGetsFreshModuleState) {
  ProtocolRegistry registry = ProtocolRegistry::WithBuiltins();
  auto a = registry.Instantiate("rtp");
  auto b = registry.Instantiate("rtp");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
}

TEST(VatModuleTest, DefaultsToArrivalTimeSchedule) {
  VatModule vat;
  MediaPacket packet;
  packet.protocol_timestamp = 999999;  // ignored: VAT uses arrival times
  EXPECT_EQ(vat.RecordDeliveryOffset(packet, SimTime::Millis(123)), SimTime::Millis(123));
  EXPECT_FALSE(vat.uses_control_port());
  EXPECT_FALSE(vat.is_constant_rate());
}

TEST(RtpModuleTest, TimestampScheduleRemovesNetworkJitter) {
  // Packets arrive with jitter but carry clean 90 kHz timestamps; the stored
  // schedule follows the timestamps (§2.3.2).
  RtpModule rtp;
  MediaPacket first;
  first.protocol_timestamp = 90000;  // t=1s of media time
  const SimTime first_offset = rtp.RecordDeliveryOffset(first, SimTime::Millis(40));
  EXPECT_EQ(first_offset, SimTime::Millis(40));  // anchor

  MediaPacket second;
  second.protocol_timestamp = 90000 + 9000;  // +100 ms of media time
  // Arrival wildly late (+350 ms); schedule must still be +100 ms.
  const SimTime second_offset = rtp.RecordDeliveryOffset(second, SimTime::Millis(390));
  EXPECT_EQ(second_offset - first_offset, SimTime::Millis(100));
}

TEST(RtpModuleTest, TimestampWraparoundHandled) {
  RtpModule rtp;
  MediaPacket first;
  first.protocol_timestamp = 0xFFFFF000;
  const SimTime anchor = rtp.RecordDeliveryOffset(first, SimTime());
  MediaPacket second;
  second.protocol_timestamp = 0x00000C00;  // wrapped: +0x1C00 ticks
  const SimTime offset = rtp.RecordDeliveryOffset(second, SimTime::Millis(70));
  EXPECT_NEAR((offset - anchor).millis_f(), (0x1C00 / 90.0), 0.1);
}

TEST(RtpModuleTest, InterleavesPeriodicControlPackets) {
  RtpModule rtp;
  PacketSequence extra;
  MediaPacket packet;
  packet.size = Bytes(1000);
  rtp.OnRecordPacket(packet, SimTime::Seconds(6), extra);
  ASSERT_EQ(extra.size(), 1u);  // first report after the 5 s interval
  EXPECT_TRUE(extra[0].flags & kPacketControl);
  extra.clear();
  rtp.OnRecordPacket(packet, SimTime::Seconds(7), extra);
  EXPECT_TRUE(extra.empty());  // not due yet
  rtp.OnRecordPacket(packet, SimTime::Seconds(12), extra);
  EXPECT_EQ(extra.size(), 1u);
}

TEST(RtpModuleTest, RoutesControlPacketsToControlPort) {
  RtpModule rtp;
  MediaPacket data;
  EXPECT_FALSE(rtp.PlaysToControlPort(data));
  MediaPacket control;
  control.flags = kPacketControl;
  EXPECT_TRUE(rtp.PlaysToControlPort(control));
  EXPECT_TRUE(rtp.uses_control_port());
}

TEST(RawCbrModuleTest, ComputedSchedule) {
  // "For constant bit-rate streams, the delivery schedule is calculated
  // rather than stored."
  RawCbrModule raw(DataRate::MegabitsPerSec(1.5), Bytes::KiB(4));
  EXPECT_TRUE(raw.is_constant_rate());
  MediaPacket packet;
  const SimTime t0 = raw.RecordDeliveryOffset(packet, SimTime::Millis(3));
  const SimTime t1 = raw.RecordDeliveryOffset(packet, SimTime::Millis(91));
  const SimTime t2 = raw.RecordDeliveryOffset(packet, SimTime::Millis(92));
  EXPECT_EQ(t0, SimTime());
  EXPECT_NEAR((t1 - t0).millis_f(), 21.85, 0.05);  // exact spacing, arrival ignored
  EXPECT_EQ((t2 - t1), (t1 - t0));
}

}  // namespace
}  // namespace calliope
