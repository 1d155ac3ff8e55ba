// Deterministic discrete-event simulator.
//
// All timing in the reproduction flows through one Simulator: hardware models
// (disks, NICs, CPU stalls) schedule events, and component logic runs as
// C++20 coroutine processes awaiting simulated time or conditions (task.h).
//
// Determinism: events at equal times fire in scheduling order (a per-event
// sequence number breaks ties), so a run is a pure function of its inputs and
// RNG seeds.
//
// An event's body is one of three kinds: a closure (may own resources,
// cancellable), a coroutine resume, or a call — a function pointer, a context
// pointer and one int64_t argument, which allocates nothing and cannot be
// cancelled. Hardware models fire their per-packet events as calls.
//
// Coroutine ownership: a suspended process frame is owned by exactly one park
// site — the event queue (timed waits), a Condition's wait list, or a
// Resource (queued or in service; its completion is a call event that owns
// nothing). Destroying the Simulator destroys the frames parked in its queue
// and drops pending calls without running them; a Resource destroys its own
// waiters. Abandoned simulations do not leak.
#ifndef CALLIOPE_SRC_SIM_SIMULATOR_H_
#define CALLIOPE_SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/util/unique_function.h"
#include "src/util/units.h"

namespace calliope {

class Simulator;

// Handle for cancelling a scheduled callback. Cancellation is cooperative:
// the event stays in the queue as a no-op until the simulator's lazy purge
// sweeps it out. Tokens are cheap value types (a slot index plus the slot's
// generation at schedule time) — no allocation per cancellable event.
class EventToken {
 public:
  EventToken() = default;

  void Cancel();
  bool valid() const { return sim_ != nullptr; }

 private:
  friend class Simulator;
  EventToken(Simulator* sim, uint32_t slot, uint64_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  Simulator* sim_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (>= Now()).
  void ScheduleAt(SimTime at, UniqueFunction<void()> fn);
  void ScheduleAfter(SimTime delay, UniqueFunction<void()> fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // As above but cancellable.
  EventToken ScheduleCancelableAt(SimTime at, UniqueFunction<void()> fn);

  // Schedules a coroutine resume (used by awaiters; not for general code).
  void ScheduleResumeAt(SimTime at, std::coroutine_handle<> handle);

  // Schedules `fn(ctx, arg)` at `at`: no allocation and no cancellation.
  // Teardown drops a pending call without running it, so `ctx` owns nothing
  // through the queue.
  using CallFn = void (*)(void* ctx, int64_t arg);
  void ScheduleCallAt(SimTime at, CallFn fn, void* ctx, int64_t arg);

  // Runs until the event queue is empty. Returns the number of events fired.
  int64_t Run();
  // Runs events with time <= deadline; the clock ends at `deadline` even if
  // the queue drains early.
  int64_t RunUntil(SimTime deadline);
  int64_t RunFor(SimTime span) { return RunUntil(now_ + span); }
  // Runs at most one event; returns false if the queue is empty.
  bool Step();

  bool Empty() const { return queue_.empty(); }
  int64_t events_fired() const { return events_fired_; }
  // Cancelled events still parked in the queue (purged lazily).
  int64_t cancelled_pending() const { return cancelled_pending_; }

  // Awaitable: resumes the awaiting coroutine after `delay` of simulated time.
  auto Delay(SimTime delay) {
    struct Awaiter {
      Simulator* sim;
      SimTime at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) { sim->ScheduleResumeAt(at, handle); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, now_ + delay};
  }

  // Awaitable: yields to any other events scheduled at the current instant.
  auto Yield() { return Delay(SimTime()); }

 private:
  friend class EventToken;

  // Heap entry: trivially copyable, so a sift moves 24 bytes and never
  // touches the event's closure. `slot` names the event's body.
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  // An event's closure, coroutine handle or call. It stays in its slot while
  // the key sifts through the heap; the slot is recycled once the event
  // leaves the queue (fired, purged or drained), emptied of its work, and
  // `gen` counts those recycles so a token naming an earlier occupant cancels
  // nothing.
  struct Body {
    UniqueFunction<void()> fn;  // exactly one of fn / coro / call is set while queued
    std::coroutine_handle<> coro{nullptr};
    CallFn call = nullptr;
    void* ctx = nullptr;
    int64_t arg = 0;
    uint64_t gen = 0;
    bool cancelled = false;
  };

  // (at, seq) is the only pop order. seq is unique, so the order is total
  // and every correct heap pops the same sequence.
  static bool Before(const Key& a, const Key& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }
  // The queue is a four-ary min-heap: half the depth of a binary heap, and
  // the children a sift compares sit side by side in memory.
  static constexpr size_t kHeapArity = 4;

  // Queues an event at `at`; returns the slot of its empty body, which the
  // caller fills.
  uint32_t Push(SimTime at);
  Key PopKey();
  // Pops the earliest event, advances the clock to it and runs it.
  void FireTop();
  // Recycles a slot whose closure, handle or call has already been moved out.
  void Release(uint32_t slot);
  void Cancel(uint32_t slot, uint64_t gen);
  // Drops cancelled events from the queue and re-heapifies. Invoked lazily
  // when cancelled events pile up, so long-lived timer patterns (schedule,
  // cancel, reschedule) do not bloat the queue.
  void PurgeCancelled();

  SimTime now_;
  uint64_t next_seq_ = 0;
  int64_t events_fired_ = 0;
  std::vector<Key> queue_;  // four-ary heap ordered by Before()
  std::vector<Body> bodies_;
  std::vector<uint32_t> free_slots_;
  int64_t cancelled_pending_ = 0;
};

inline void EventToken::Cancel() {
  if (sim_ != nullptr) {
    sim_->Cancel(slot_, gen_);
    sim_ = nullptr;  // copies of this token see a generation mismatch
  }
}

}  // namespace calliope

#endif  // CALLIOPE_SRC_SIM_SIMULATOR_H_
