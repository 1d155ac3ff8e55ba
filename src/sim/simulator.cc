#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace calliope {

Simulator::~Simulator() {
  // Destroy parked coroutine frames so abandoned simulations do not leak.
  // Draining the queue in pop order is enough: destroying a frame or closure
  // runs destructors of its locals, which may own further conditions/frames,
  // recursively (and may even queue more events, which this loop drains too).
  // A pending call owns nothing and is dropped without running.
  while (!queue_.empty()) {
    const Key key = PopKey();
    Body& body = bodies_[key.slot];
    const std::coroutine_handle<> coro = std::exchange(body.coro, nullptr);
    UniqueFunction<void()> fn = std::move(body.fn);
    body.call = nullptr;
    Release(key.slot);
    if (coro) {
      coro.destroy();
    }
  }
}

uint32_t Simulator::Push(SimTime at) {
  assert(at >= now_ && "cannot schedule in the past");
  uint32_t slot = static_cast<uint32_t>(bodies_.size());
  if (free_slots_.empty()) {
    bodies_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  assert(!bodies_[slot].fn && !bodies_[slot].coro && bodies_[slot].call == nullptr);
  const Key key{at, next_seq_++, slot};
  // Sift up: move the hole toward the root past every later parent.
  size_t hole = queue_.size();
  queue_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / kHeapArity;
    if (!Before(key, queue_[parent])) {
      break;
    }
    queue_[hole] = queue_[parent];
    hole = parent;
  }
  queue_[hole] = key;
  return slot;
}

Simulator::Key Simulator::PopKey() {
  const Key top = queue_.front();
  const Key last = queue_.back();
  queue_.pop_back();
  const size_t size = queue_.size();
  if (size == 0) {
    return top;
  }
  // Sift down: move the hole at the root toward the leaves past every child
  // earlier than `last`, then drop `last` into it.
  size_t hole = 0;
  for (;;) {
    const size_t first = hole * kHeapArity + 1;
    if (first >= size) {
      break;
    }
    const size_t end = std::min(first + kHeapArity, size);
    size_t earliest = first;
    for (size_t child = first + 1; child < end; ++child) {
      if (Before(queue_[child], queue_[earliest])) {
        earliest = child;
      }
    }
    if (!Before(queue_[earliest], last)) {
      break;
    }
    queue_[hole] = queue_[earliest];
    hole = earliest;
  }
  queue_[hole] = last;
  return top;
}

void Simulator::ScheduleAt(SimTime at, UniqueFunction<void()> fn) {
  bodies_[Push(at)].fn = std::move(fn);
}

EventToken Simulator::ScheduleCancelableAt(SimTime at, UniqueFunction<void()> fn) {
  const uint32_t slot = Push(at);
  bodies_[slot].fn = std::move(fn);
  return EventToken(this, slot, bodies_[slot].gen);
}

void Simulator::ScheduleResumeAt(SimTime at, std::coroutine_handle<> handle) {
  bodies_[Push(at)].coro = handle;
}

void Simulator::ScheduleCallAt(SimTime at, CallFn fn, void* ctx, int64_t arg) {
  Body& body = bodies_[Push(at)];
  body.call = fn;
  body.ctx = ctx;
  body.arg = arg;
}

void Simulator::Release(uint32_t slot) {
  Body& body = bodies_[slot];
  // Bump the generation so stale tokens can never cancel a future event that
  // recycles this slot, then recycle it.
  ++body.gen;
  body.cancelled = false;
  free_slots_.push_back(slot);
}

void Simulator::Cancel(uint32_t slot, uint64_t gen) {
  if (slot >= bodies_.size() || bodies_[slot].gen != gen || bodies_[slot].cancelled) {
    return;  // already fired, purged, or cancelled via another token copy
  }
  // The closure stays put: it is destroyed when the event pops or is purged,
  // never here, because it may own a coroutine frame whose caller is running.
  bodies_[slot].cancelled = true;
  ++cancelled_pending_;
  // Lazy purge: only when cancelled events dominate the queue is the O(n)
  // sweep worth it. Long-lived schedule/cancel/reschedule timer patterns
  // otherwise grow the queue without bound.
  if (cancelled_pending_ > 64 &&
      cancelled_pending_ > static_cast<int64_t>(queue_.size()) / 2) {
    PurgeCancelled();
  }
}

void Simulator::PurgeCancelled() {
  // Closures are destroyed only once the heap is whole again: a destructor
  // may schedule.
  std::vector<UniqueFunction<void()>> dropped;
  auto keep = queue_.begin();
  for (const Key& key : queue_) {
    Body& body = bodies_[key.slot];
    if (body.cancelled) {
      dropped.push_back(std::move(body.fn));
      --cancelled_pending_;
      Release(key.slot);
      continue;
    }
    *keep++ = key;
  }
  queue_.erase(keep, queue_.end());
  std::sort(queue_.begin(), queue_.end(), Before);  // a sorted array is a heap
}

void Simulator::FireTop() {
  const Key key = PopKey();
  now_ = key.at;
  ++events_fired_;
  // Move the work out and recycle the slot before running it: the callee may
  // schedule, reuse this slot and grow bodies_. The closure is destroyed
  // only after it has run.
  Body& body = bodies_[key.slot];
  if (body.call != nullptr) {
    const CallFn call = std::exchange(body.call, nullptr);
    void* const ctx = body.ctx;
    const int64_t arg = body.arg;
    Release(key.slot);
    call(ctx, arg);
    return;
  }
  if (body.coro) {
    const std::coroutine_handle<> coro = std::exchange(body.coro, nullptr);
    Release(key.slot);
    coro.resume();
    return;
  }
  UniqueFunction<void()> fn = std::move(body.fn);
  const bool live = !body.cancelled;
  if (!live) {
    --cancelled_pending_;  // this event had been cancelled while queued
  }
  Release(key.slot);
  if (live) {
    fn();
  }
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  FireTop();
  return true;
}

int64_t Simulator::Run() {
  int64_t fired = 0;
  while (Step()) {
    ++fired;
  }
  return fired;
}

int64_t Simulator::RunUntil(SimTime deadline) {
  int64_t fired = 0;
  while (!queue_.empty() && queue_.front().at <= deadline) {
    FireTop();
    ++fired;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return fired;
}

}  // namespace calliope
