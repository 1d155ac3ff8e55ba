// Resource: a single FIFO server with utilization accounting.
//
// Models serially-shared hardware: a CPU, a SCSI chain, a memory bus, a NIC
// wire. Work is submitted with a service duration; requests are served one at
// a time in submission order. Both a callback form (Submit) and an awaitable
// form (Use) are provided.
//
// The Resource owns every request it holds: the queued ones in a ring and
// the one in service in a member, whose completion is a call event on the
// Resource. A request costs no allocation once the ring has reached its
// working depth, and destroying the Resource destroys its waiters' frames
// (in service first, then the queue in FIFO order).
#ifndef CALLIOPE_SRC_SIM_RESOURCE_H_
#define CALLIOPE_SRC_SIM_RESOURCE_H_

#include <coroutine>
#include <deque>
#include <string>

#include "src/sim/owned_coro.h"
#include "src/sim/simulator.h"
#include "src/util/ring_queue.h"
#include "src/util/unique_function.h"

namespace calliope {

class Resource {
 public:
  Resource(Simulator& sim, std::string name);
  ~Resource();

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  // Enqueues `service` time of work; `done` (may be null) fires when it
  // completes.
  void Submit(SimTime service, UniqueFunction<void()> done);

  // Awaitable form of Submit.
  auto Use(SimTime service) {
    struct Awaiter {
      Resource* resource;
      SimTime service;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        resource->SubmitCoro(service, handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, service};
  }

  const std::string& name() const { return name_; }
  bool busy() const { return busy_; }
  size_t queue_length() const { return queue_.size(); }
  int64_t completed() const { return completed_; }

  // Total time the server has spent serving since construction (or the last
  // ResetStats). In-progress service counts up to Now().
  SimTime BusyTime() const;
  // BusyTime() / elapsed-since-ResetStats, in [0, 1].
  double Utilization() const;
  void ResetStats();

 private:
  struct Request {
    SimTime service;
    UniqueFunction<void()> done;  // at most one of done / coro is set
    OwnedCoro coro;
  };

  void SubmitCoro(SimTime service, std::coroutine_handle<> handle);
  void Enqueue(Request request);
  void BeginService();
  // The completion event's call: `resource` is the Resource.
  static void Complete(void* resource, int64_t unused);

  Simulator* sim_;
  std::string name_;
  RingQueue<Request> queue_;
  Request in_service_;  // meaningful while busy_
  bool busy_ = false;
  SimTime current_started_;
  SimTime busy_accum_;
  SimTime stats_epoch_;
  int64_t completed_ = 0;
};

// Counting semaphore for coroutine processes (buffer pools, window limits).
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial);

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto Acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept { return sem->TryAcquire(); }
      void await_suspend(std::coroutine_handle<> handle) {
        sem->waiters_.emplace_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  bool TryAcquire();
  void Release();

  int64_t count() const { return count_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  int64_t count_;
  std::deque<OwnedCoro> waiters_;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_SIM_RESOURCE_H_
