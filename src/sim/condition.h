// Condition: a broadcast wakeup point for coroutine processes.
//
// `co_await cond.Wait()` parks the process; `NotifyAll()` reschedules every
// parked process at the current simulated instant (never inline, so notifiers
// cannot reenter waiter state mid-operation). Typical use is the classic
// condition-variable loop:
//
//   while (!predicate()) { co_await cond.Wait(); }
//
// Parked frames are owned by the wait list and destroyed with it.
#ifndef CALLIOPE_SRC_SIM_CONDITION_H_
#define CALLIOPE_SRC_SIM_CONDITION_H_

#include <coroutine>
#include <utility>
#include <vector>

#include "src/sim/owned_coro.h"
#include "src/sim/simulator.h"

namespace calliope {

class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(&sim) {}

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  auto Wait() {
    struct Awaiter {
      Condition* cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        cond->waiters_.emplace_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void NotifyAll() {
    // Move out first: waiters resumed now may re-wait on this condition.
    std::vector<OwnedCoro> ready;
    ready.swap(waiters_);
    for (auto& waiter : ready) {
      sim_->ScheduleResumeAt(sim_->Now(), waiter.Release());
    }
  }

  void NotifyOne() {
    if (waiters_.empty()) {
      return;
    }
    OwnedCoro waiter = std::move(waiters_.front());
    waiters_.erase(waiters_.begin());
    sim_->ScheduleResumeAt(sim_->Now(), waiter.Release());
  }

  // Destroys every parked frame without resuming it: for a park site torn
  // down while a waiter's own frame keeps the site alive.
  void DestroyWaiters() {
    std::vector<OwnedCoro> doomed;
    doomed.swap(waiters_);
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::vector<OwnedCoro> waiters_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_SIM_CONDITION_H_
