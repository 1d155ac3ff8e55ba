#include "src/sim/frame_pool.h"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace calliope::frame_pool {

namespace {

constexpr size_t kGranule = 16;
constexpr size_t kClasses = kMaxPooledFrame / kGranule;

size_t ClassOf(size_t size) { return (size + kGranule - 1) / kGranule - 1; }
size_t BlockSize(size_t cls) { return (cls + 1) * kGranule; }

// A free block's first word links it to the next free block of its class.
struct FreeBlock {
  FreeBlock* next;
};

// Set once this thread's lists have been returned: frames freed later (by
// other thread-exit or static destructors) go straight to the allocator.
thread_local bool closed = false;

// One thread's free lists. At thread exit every free block goes back to the
// global allocator, so a leak checker reports only frames still live.
struct FreeLists {
  FreeBlock* heads[kClasses] = {};

  ~FreeLists() {
    closed = true;
    for (size_t cls = 0; cls < kClasses; ++cls) {
      while (FreeBlock* block = heads[cls]) {
        ASAN_UNPOISON_MEMORY_REGION(block, BlockSize(cls));
        heads[cls] = block->next;
        ::operator delete(block);
      }
    }
  }
};
thread_local FreeLists free_lists;

}  // namespace

void* Allocate(size_t size) {
  if (size == 0 || size > kMaxPooledFrame || closed) {
    return ::operator new(size);
  }
  const size_t cls = ClassOf(size);
  FreeBlock* block = free_lists.heads[cls];
  if (block == nullptr) {
    return ::operator new(BlockSize(cls));
  }
  ASAN_UNPOISON_MEMORY_REGION(block, BlockSize(cls));
  free_lists.heads[cls] = block->next;
  return block;
}

void Free(void* frame, size_t size) noexcept {
  if (size == 0 || size > kMaxPooledFrame || closed) {
    ::operator delete(frame);
    return;
  }
  const size_t cls = ClassOf(size);
  auto* block = static_cast<FreeBlock*>(frame);
  block->next = free_lists.heads[cls];
  free_lists.heads[cls] = block;
  ASAN_POISON_MEMORY_REGION(block, BlockSize(cls));
}

}  // namespace calliope::frame_pool
