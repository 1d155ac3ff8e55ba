// Coroutine frames from per-size free lists.
//
// Every simulated process and async call is a coroutine frame, allocated when
// the call starts and freed when it finishes: millions per run, in a handful
// of sizes. `PooledFrame` gives a promise type class-level operator
// new/delete that recycle frames through a free list per 16-byte size class
// instead of going to malloc each time. Pooled blocks go back to the global
// allocator only when their thread exits; until then the pool holds the
// high-water mark of live frames of each size class.
//
// Frames above kMaxPooledFrame bytes bypass the pool. Those are the
// long-lived processes and once-per-session calls, under 0.02 frames per
// event; pooled, their memory would sit idle once setup ends instead of
// being reused for other sizes (+1.4 MB peak RSS on graph1_packet with a
// 4 KiB cap, +0.2 MB with this one).
//
// The lists are per thread (the simulator is single-threaded; this only keeps
// stray threads from racing); a frame joins the list of the thread that frees
// it. Under AddressSanitizer a block on a free list is poisoned, so resuming
// or destroying a frame that has already finished is still reported, as long
// as no new frame of its size class has reused the block.
#ifndef CALLIOPE_SRC_SIM_FRAME_POOL_H_
#define CALLIOPE_SRC_SIM_FRAME_POOL_H_

#include <cstddef>

namespace calliope {

namespace frame_pool {

inline constexpr size_t kMaxPooledFrame = 512;

void* Allocate(size_t size);
void Free(void* frame, size_t size) noexcept;

}  // namespace frame_pool

// Base of a coroutine promise type whose frames come from the pool.
struct PooledFrame {
  static void* operator new(size_t size) { return frame_pool::Allocate(size); }
  static void operator delete(void* frame, size_t size) noexcept {
    frame_pool::Free(frame, size);
  }
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_SIM_FRAME_POOL_H_
