#include "src/hw/memory_bus.h"

#include <algorithm>

namespace calliope {

namespace {

// A DMA chunk's call event: `bus` is the shared Resource, `busy` the chunk's
// occupancy in nanoseconds. Its completion is not observable, so it has none.
void SubmitDmaChunk(void* bus, int64_t busy) {
  static_cast<Resource*>(bus)->Submit(SimTime(busy), nullptr);
}

}  // namespace

MemoryBus::MemoryBus(Simulator& sim, const MemoryBusParams& params, Resource& shared)
    : sim_(&sim), params_(params), bus_(&shared) {}

void MemoryBus::SubmitDma(Bytes size, SimTime window, bool is_write, Bytes chunk_override) {
  const DataRate rate = is_write ? params_.write_rate : params_.read_rate;
  const Bytes chunk = std::max(params_.dma_chunk, chunk_override);
  const int64_t chunks = std::max<int64_t>(1, (size.count() + chunk.count() - 1) / chunk.count());
  const SimTime spacing = window / chunks;
  Bytes remaining = size;
  for (int64_t i = 0; i < chunks; ++i) {
    const Bytes this_chunk = std::min(chunk, remaining);
    remaining -= this_chunk;
    const SimTime busy = OpTime(this_chunk, rate);
    sim_->ScheduleCallAt(sim_->Now() + spacing * i, &SubmitDmaChunk, bus_, busy.nanos());
  }
}

}  // namespace calliope
