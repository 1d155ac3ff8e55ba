#include "src/sim/resource.h"

#include <cassert>
#include <utility>

namespace calliope {

Resource::Resource(Simulator& sim, std::string name)
    : sim_(&sim), name_(std::move(name)), stats_epoch_(sim.Now()) {}

Resource::~Resource() {
  // The waiter in service goes first, then the queue in FIFO order. A
  // pending completion call stays in the Simulator's queue, whose teardown
  // drops it unrun.
  in_service_ = Request();
  queue_.Clear();
}

void Resource::Submit(SimTime service, UniqueFunction<void()> done) {
  Enqueue(Request{service, std::move(done), OwnedCoro()});
}

void Resource::SubmitCoro(SimTime service, std::coroutine_handle<> handle) {
  Enqueue(Request{service, nullptr, OwnedCoro(handle)});
}

void Resource::Enqueue(Request request) {
  assert(request.service >= SimTime());
  queue_.PushBack(std::move(request));
  if (!busy_) {
    BeginService();
  }
}

void Resource::BeginService() {
  assert(!busy_ && !queue_.empty());
  busy_ = true;
  current_started_ = sim_->Now();
  in_service_ = queue_.PopFront();
  sim_->ScheduleCallAt(sim_->Now() + in_service_.service, &Resource::Complete, this, 0);
}

void Resource::Complete(void* resource, int64_t /*unused*/) {
  auto* self = static_cast<Resource*>(resource);
  Request request = std::move(self->in_service_);
  self->busy_ = false;
  self->busy_accum_ += request.service;
  ++self->completed_;
  if (!self->queue_.empty()) {
    self->BeginService();
  }
  if (request.coro) {
    request.coro.Resume();
  } else if (request.done) {
    request.done();
  }
}

SimTime Resource::BusyTime() const {
  SimTime busy = busy_accum_;
  if (busy_) {
    busy += sim_->Now() - current_started_;
  }
  return busy;
}

double Resource::Utilization() const {
  const SimTime elapsed = sim_->Now() - stats_epoch_;
  if (elapsed <= SimTime()) {
    return 0.0;
  }
  return BusyTime().seconds() / elapsed.seconds();
}

void Resource::ResetStats() {
  busy_accum_ = SimTime();
  stats_epoch_ = sim_->Now();
  if (busy_) {
    current_started_ = sim_->Now();
  }
  completed_ = 0;
}

Semaphore::Semaphore(Simulator& sim, int64_t initial) : sim_(&sim), count_(initial) {}

bool Semaphore::TryAcquire() {
  if (count_ > 0) {
    --count_;
    return true;
  }
  return false;
}

void Semaphore::Release() {
  if (!waiters_.empty()) {
    OwnedCoro waiter = std::move(waiters_.front());
    waiters_.pop_front();
    // The released permit transfers directly to the waiter; count_ unchanged.
    sim_->ScheduleResumeAt(sim_->Now(), waiter.Release());
    return;
  }
  ++count_;
}

}  // namespace calliope
