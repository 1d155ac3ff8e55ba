// RingQueue<T>: a FIFO over a power-of-two ring that grows by doubling and
// never shrinks, so a queue that has reached its working depth pushes and
// pops without allocating (std::deque allocates and frees a block whenever
// its contents cross a block boundary). T must be default-constructible and
// move-assignable; a popped element's slot keeps its moved-from value until
// it is reused. Elements still queued are destroyed front to back.
#ifndef CALLIOPE_SRC_UTIL_RING_QUEUE_H_
#define CALLIOPE_SRC_UTIL_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace calliope {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;
  ~RingQueue() { Clear(); }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void PushBack(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  T PopFront() {
    assert(size_ > 0);
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

  // Destroys the queued elements in FIFO order.
  void Clear() {
    while (size_ > 0) {
      PopFront();
    }
  }

 private:
  static constexpr size_t kInitialCapacity = 8;

  void Grow() {
    std::vector<T> grown(slots_.empty() ? kInitialCapacity : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_UTIL_RING_QUEUE_H_
