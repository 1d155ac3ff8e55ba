// Network interface model (FDDI for the delivery network, Ethernet for the
// intra-server LAN).
//
// The send path reproduces the paper's §3.2.3 data-path accounting for one
// UDP datagram:
//   1. syscall + protocol-stack compute and driver doorbell port I/O (CPU);
//   2. user-space -> kernel-mbuf copy (memory bus, 18 MB/s class);
//   3. UDP checksum read pass (memory bus, 53 MB/s class);
//   4. output-queue admission — full queue yields ENOBUFS, as FreeBSD does;
//   5. wire serialization with a concurrent DMA read of the mbuf.
// The receive path mirrors it (DMA write, rx interrupt, checksum, copy out).
#ifndef CALLIOPE_SRC_HW_NIC_H_
#define CALLIOPE_SRC_HW_NIC_H_

#include <functional>
#include <memory>
#include <string>

#include "src/hw/cpu.h"
#include "src/hw/memory_bus.h"
#include "src/hw/params.h"
#include "src/sim/co.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"

namespace calliope {

// One frame on the wire. `payload` is opaque to the hardware layer; the net
// substrate uses it to carry datagram contents end to end.
// Non-aggregate (declared constructors): safe as a coroutine parameter.
struct Frame {
  Frame() = default;
  explicit Frame(Bytes frame_size) : size(frame_size) {}

  Bytes size;
  std::shared_ptr<const void> payload;
  // Flow-mode aggregation: one Frame standing in for `packet_count` logical
  // datagrams sent back to back. The send path charges per-packet CPU and
  // port I/O `packet_count` times but makes a single copy/checksum/DMA/wire
  // reservation over the total bytes — an aggregate "deliver N bytes" grant.
  int64_t packet_count = 1;
};

class Nic {
 public:
  Nic(Simulator& sim, Cpu& cpu, MemoryBus& memory, const NicParams& params, std::string name);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // Sends one datagram. Returns false on ENOBUFS (output queue full); the
  // CPU and memory work has been spent either way, like a real kernel.
  Co<bool> TrySend(Frame frame);

  // ttcp semantics: "Ttcp then sleeps briefly and tries to send the packet
  // again" — retries every 1 ms until the queue drains.
  Co<void> SendBlocking(Frame frame);

  // Wire-out hook: invoked when a frame finishes serializing. The network
  // fabric (src/net) attaches here; standalone benchmarks read stats instead.
  void set_wire_sink(std::function<void(Frame)> sink) { wire_sink_ = std::move(sink); }

  // Entry point for frames arriving from the fabric. Runs the host receive
  // path, then hands the frame to the rx sink.
  void DeliverFromWire(Frame frame);
  void set_rx_sink(std::function<void(Frame)> sink) { rx_sink_ = std::move(sink); }

  const std::string& name() const { return name_; }
  const NicParams& params() const { return params_; }
  int64_t frames_sent() const { return frames_sent_; }
  Bytes bytes_sent() const { return bytes_sent_; }
  int64_t enobufs_count() const { return enobufs_count_; }
  int64_t frames_received() const { return frames_received_; }
  void ResetStats() {
    frames_sent_ = 0;
    bytes_sent_ = Bytes(0);
    enobufs_count_ = 0;
    frames_received_ = 0;
  }

 private:
  Task RunReceivePath(Frame frame);

  Simulator* sim_;
  Cpu* cpu_;
  MemoryBus* memory_;
  NicParams params_;
  std::string name_;
  Resource wire_;
  std::function<void(Frame)> wire_sink_;
  std::function<void(Frame)> rx_sink_;
  int64_t frames_sent_ = 0;
  Bytes bytes_sent_;
  int64_t enobufs_count_ = 0;
  int64_t frames_received_ = 0;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_HW_NIC_H_
