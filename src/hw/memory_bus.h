// The host memory bus: a serially-shared resource with distinct read, write
// and copy bandwidths (paper §3.2.3: 53 / 25 / 18 MB/s on the Micron P66).
//
// CPU-driven operations (user->kernel copies, checksum reads) occupy both the
// CPU's attention and the bus; we account them here and callers sequence them
// on the data path. DMA engines (SCSI HBA writes, NIC reads) trickle their
// transfers onto the bus in small chunks spread across the device transfer
// window, so a 51 ms disk media transfer occupies ~20% of the bus rather than
// blocking it solid.
//
// The `efficiency` factor models instruction-fetch interference: the paper's
// diskless pipeline test moved 6.3 MB/s of a theoretical 7.5 MB/s.
//
// The bus shares one serial Resource with the CPU: a 66 MHz Pentium is
// stalled while it copies or checksums, and DMA bursts arbitrate against it,
// so compute, memory operations and DMA all serialize — which is exactly how
// the paper's 7.5 MB/s theoretical pipeline number is derived.
#ifndef CALLIOPE_SRC_HW_MEMORY_BUS_H_
#define CALLIOPE_SRC_HW_MEMORY_BUS_H_

#include "src/hw/params.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace calliope {

class MemoryBus {
 public:
  // `shared` is the CPU's execution resource (see Machine); all memory
  // traffic serializes with compute on it.
  MemoryBus(Simulator& sim, const MemoryBusParams& params, Resource& shared);

  // Awaitable CPU-side operations: occupy the bus for size/rate/efficiency.
  auto Read(Bytes size) { return bus_->Use(OpTime(size, params_.read_rate)); }
  auto Write(Bytes size) { return bus_->Use(OpTime(size, params_.write_rate)); }
  auto Copy(Bytes size) { return bus_->Use(OpTime(size, params_.copy_rate)); }

  // Fire-and-forget DMA: issues size/dma_chunk bus operations evenly spread
  // over `window` (the device's transfer duration), charged at the read or
  // write rate. Completion of the bus traffic is not observable — the device
  // model owns the transfer-complete event — so each chunk is a call event
  // that submits with no completion callback and allocates nothing.
  //
  // `chunk_override` (0 = use params().dma_chunk) coarsens the trickle for
  // aggregate flow-fidelity transfers: the bus occupancy total is identical,
  // but a page-sized transfer costs a handful of events instead of dozens.
  // Per-packet paths never pass it, so their interleaving is untouched.
  void SubmitDma(Bytes size, SimTime window, bool is_write, Bytes chunk_override = Bytes());

  SimTime OpTime(Bytes size, DataRate rate) const {
    const SimTime nominal = rate.TransferTime(size);
    return SimTime(static_cast<int64_t>(static_cast<double>(nominal.nanos()) / params_.efficiency));
  }

  double Utilization() const { return bus_->Utilization(); }
  const MemoryBusParams& params() const { return params_; }

 private:
  Simulator* sim_;
  MemoryBusParams params_;
  Resource* bus_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_HW_MEMORY_BUS_H_
