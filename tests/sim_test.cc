#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/hw/memory_bus.h"
#include "src/hw/params.h"
#include "src/sim/co.h"
#include "src/sim/condition.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/util/rng.h"

// This binary counts its global operator new calls, so a test can assert
// that a steady-state path allocates nothing (AllocationTest below). The
// replacements stay out of line: inlined, GCC pairs the malloc inside one
// with the free inside the other and warns of a mismatch.
namespace {
std::atomic<int64_t> operator_new_calls{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t /*size*/) noexcept {
  std::free(block);
}

namespace calliope {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Millis(20), [&] { order.push_back(2); });
  sim.ScheduleAt(SimTime::Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Millis(30), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(30));
}

TEST(SimulatorTest, EqualTimesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadlineWhenQueueDrains) {
  Simulator sim;
  sim.ScheduleAt(SimTime::Millis(1), [] {});
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, RunUntilDoesNotFireLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(SimTime::Seconds(10), [&] { fired = true; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_FALSE(fired);
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventToken token = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { fired = true; });
  token.Cancel();
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StaleTokenCancelDoesNotKillSlotReuser) {
  // Cancellation slots recycle once their event fires; a stale token held
  // past that point sees a generation mismatch and must not cancel whatever
  // event reused the slot.
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  EventToken stale = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { first_fired = true; });
  sim.Run();
  EXPECT_TRUE(first_fired);
  [[maybe_unused]] EventToken reuser =
      sim.ScheduleCancelableAt(SimTime::Millis(2), [&] { second_fired = true; });
  stale.Cancel();
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, CancelTwiceViaCopyCountsOnce) {
  Simulator sim;
  bool fired = false;
  EventToken token = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { fired = true; });
  EventToken copy = token;
  token.Cancel();
  copy.Cancel();  // generation already bumped: a no-op, not a double count
  EXPECT_EQ(sim.cancelled_pending(), 1);
  sim.Run();
  EXPECT_FALSE(fired);
  // The cancelled event drained through the queue as a no-op and left the
  // pending count balanced.
  EXPECT_EQ(sim.cancelled_pending(), 0);
}

TEST(SimulatorTest, LazyPurgeSweepsCancelledBacklog) {
  // The schedule/cancel/reschedule timer pattern (flow-mode page sleeps)
  // parks cancelled events in the queue; once they dominate, the lazy purge
  // sweeps them without disturbing live events.
  Simulator sim;
  int fired = 0;
  std::vector<EventToken> tokens;
  tokens.reserve(100);
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(
        sim.ScheduleCancelableAt(SimTime::Millis(10 + i), [&] { ++fired; }));
  }
  for (int i = 1; i < 100; ++i) {
    tokens[static_cast<size_t>(i)].Cancel();
  }
  // The sweep ran at least once mid-loop: far fewer than 99 still parked.
  EXPECT_LT(sim.cancelled_pending(), 99);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0);
}

TEST(SimulatorTest, StaleTokenFromCancelledAndPoppedSlotCancelsNothing) {
  // A cancelled event frees its slot when it pops (or is purged). A second
  // copy of its token must not reach the event that recycles the slot.
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  EventToken first = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { first_fired = true; });
  EventToken stale_copy = first;
  first.Cancel();
  sim.Run();  // pops the cancelled event and recycles its slot
  EXPECT_FALSE(first_fired);
  [[maybe_unused]] EventToken reuser =
      sim.ScheduleCancelableAt(SimTime::Millis(2), [&] { second_fired = true; });
  stale_copy.Cancel();
  EXPECT_EQ(sim.cancelled_pending(), 0);
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, StaleTokenFromPurgedSlotCancelsNothing) {
  Simulator sim;
  std::vector<EventToken> tokens;
  std::vector<EventToken> copies;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(sim.ScheduleCancelableAt(SimTime::Millis(10), [] {}));
    copies.push_back(tokens.back());
  }
  for (EventToken& token : tokens) {
    token.Cancel();  // the purge runs once the cancelled events dominate
  }
  EXPECT_LT(sim.cancelled_pending(), 100);
  const int64_t parked = sim.cancelled_pending();
  int fired = 0;
  std::vector<EventToken> reusers;
  for (int i = 0; i < 100; ++i) {
    reusers.push_back(sim.ScheduleCancelableAt(SimTime::Millis(5), [&] { ++fired; }));
  }
  for (EventToken& copy : copies) {
    copy.Cancel();
  }
  EXPECT_EQ(sim.cancelled_pending(), parked);
  sim.Run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.cancelled_pending(), 0);
}

// Reference model of the event queue: the pop order is (at, seq), cancelled
// events pop as no-ops, and a cancel that leaves more than 64 cancelled
// events making up over half the queue purges every cancelled event.
class ReferenceQueue {
 public:
  struct Entry {
    int id = 0;
    bool cancelled = false;
  };

  int Schedule(SimTime at) {
    const int id = next_id_++;
    pending_[{at.nanos(), next_seq_++}] = Entry{id, false};
    where_[id] = {at.nanos(), next_seq_ - 1};
    return id;
  }

  void Cancel(int id) {
    auto it = where_.find(id);
    if (it == where_.end()) {
      return;  // fired, popped or purged
    }
    Entry& entry = pending_.at(it->second);
    if (entry.cancelled) {
      return;
    }
    entry.cancelled = true;
    ++cancelled_pending_;
    if (cancelled_pending_ > 64 &&
        cancelled_pending_ > static_cast<int64_t>(pending_.size()) / 2) {
      for (auto p = pending_.begin(); p != pending_.end();) {
        if (p->second.cancelled) {
          where_.erase(p->second.id);
          p = pending_.erase(p);
        } else {
          ++p;
        }
      }
      cancelled_pending_ = 0;
    }
  }

  // Pops the earliest event; returns its id, or -1 if it was cancelled.
  int Pop(SimTime* now) {
    auto it = pending_.begin();
    *now = SimTime(it->first.first);
    const Entry entry = it->second;
    where_.erase(entry.id);
    pending_.erase(it);
    ++pops_;
    if (entry.cancelled) {
      --cancelled_pending_;
      return -1;
    }
    return entry.id;
  }

  bool empty() const { return pending_.empty(); }
  int64_t cancelled_pending() const { return cancelled_pending_; }
  int64_t pops() const { return pops_; }

 private:
  std::map<std::pair<int64_t, uint64_t>, Entry> pending_;
  std::map<int, std::pair<int64_t, uint64_t>> where_;
  int next_id_ = 0;
  uint64_t next_seq_ = 0;
  int64_t cancelled_pending_ = 0;
  int64_t pops_ = 0;
};

// A call event's function: `on_fire` is a std::function<void(int)>.
void FireCall(void* on_fire, int64_t id) {
  (*static_cast<std::function<void(int)>*>(on_fire))(static_cast<int>(id));
}

// Parks until `at` as a coroutine resume, then fires `id`.
Task ResumeAndFire(Simulator& sim, SimTime at, std::function<void(int)>* on_fire, int id) {
  co_await sim.Delay(at - sim.Now());
  (*on_fire)(id);
}

TEST(SimulatorTest, SeededScheduleCancelRescheduleFiresInReferenceOrder) {
  Simulator sim;
  ReferenceQueue reference;
  Rng rng(20240611);
  std::vector<int> fired;
  std::vector<int> expected;
  std::vector<std::pair<EventToken, int>> tokens;  // token, reference id

  // Every seventh event schedules a child at its own instant from inside its
  // callback, so slots are recycled while a callee runs. The reference queues
  // the child (and names it) just before the simulator pops its parent.
  // Half the events are cancellable closures; the rest are plain closures,
  // call events and coroutine resumes, which share instants with them.
  int child_id = -1;
  int calls = 0;
  int resumes = 0;
  std::function<void(SimTime, int)> schedule_in_sim;
  std::function<void(int)> on_fire = [&](int id) {
    fired.push_back(id);
    if (id % 7 == 0) {
      schedule_in_sim(sim.Now(), child_id);
    }
  };
  schedule_in_sim = [&](SimTime at, int id) {
    auto fn = [&on_fire, id] { on_fire(id); };
    switch (rng.NextBelow(6)) {
      case 0:
      case 1:
      case 2:
        tokens.emplace_back(sim.ScheduleCancelableAt(at, fn), id);
        break;
      case 3:
        sim.ScheduleAt(at, fn);
        break;
      case 4:
        sim.ScheduleCallAt(at, &FireCall, &on_fire, id);
        ++calls;
        break;
      default:
        ResumeAndFire(sim, at, &on_fire, id);
        ++resumes;
        break;
    }
  };
  const auto schedule = [&](SimTime at) { schedule_in_sim(at, reference.Schedule(at)); };
  // Few distinct offsets, so many events share an instant.
  const auto pick_time = [&] {
    static constexpr int64_t kOffsetsNs[] = {0, 0, 0, 1000, 1000000, 5000000};
    const uint64_t pick = rng.NextBelow(7);
    return sim.Now() + (pick < 6 ? SimTime(kOffsetsNs[pick])
                                 : SimTime(static_cast<int64_t>(rng.NextBelow(10000000))));
  };
  const auto cancel_random = [&] {
    if (tokens.empty()) {
      return;
    }
    auto& [token, id] = tokens[rng.NextBelow(tokens.size())];
    token.Cancel();  // may be stale: fired, purged or already cancelled
    reference.Cancel(id);
  };
  const auto step = [&] {
    if (reference.empty()) {
      EXPECT_FALSE(sim.Step());
      return;
    }
    SimTime at;
    const int id = reference.Pop(&at);
    if (id >= 0) {
      expected.push_back(id);
      if (id % 7 == 0) {
        child_id = reference.Schedule(at);
      }
    }
    ASSERT_TRUE(sim.Step());
    EXPECT_EQ(sim.Now(), at);
  };

  for (int op = 0; op < 10000; ++op) {
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 35) {
      schedule(pick_time());
    } else if (kind < 55) {
      cancel_random();
    } else if (kind < 70) {
      cancel_random();
      schedule(pick_time());
    } else {
      step();
    }
    ASSERT_EQ(sim.cancelled_pending(), reference.cancelled_pending()) << "op " << op;
  }
  while (!reference.empty()) {
    step();
  }
  EXPECT_TRUE(sim.Empty());
  EXPECT_EQ(fired, expected);
  EXPECT_GT(fired.size(), 2000u);
  EXPECT_GT(calls, 300);
  EXPECT_GT(resumes, 300);
  // Cancelled pops count as fired events; purged ones never pop.
  EXPECT_EQ(sim.events_fired(), reference.pops());
  EXPECT_EQ(sim.cancelled_pending(), 0);
}

TEST(SimulatorTest, NestedSchedulingFromCallback) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(SimTime::Millis(1), [&] {
    ++count;
    sim.ScheduleAfter(SimTime::Millis(1), [&] { ++count; });
  });
  sim.Run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), SimTime::Millis(2));
}

Task DelayTwice(Simulator& sim, std::vector<int64_t>& wakeups) {
  co_await sim.Delay(SimTime::Millis(5));
  wakeups.push_back(sim.Now().millis());
  co_await sim.Delay(SimTime::Millis(7));
  wakeups.push_back(sim.Now().millis());
}

TEST(TaskTest, DelayResumesAtRightTimes) {
  Simulator sim;
  std::vector<int64_t> wakeups;
  DelayTwice(sim, wakeups);
  sim.Run();
  EXPECT_EQ(wakeups, (std::vector<int64_t>{5, 12}));
}

Task WaitOnCondition(Simulator& sim, Condition& cond, int& wakes) {
  co_await cond.Wait();
  ++wakes;
  co_await cond.Wait();
  ++wakes;
}

TEST(ConditionTest, NotifyAllWakesEveryWaiterOnce) {
  Simulator sim;
  Condition cond(sim);
  int wakes = 0;
  WaitOnCondition(sim, cond, wakes);
  WaitOnCondition(sim, cond, wakes);
  sim.Run();
  EXPECT_EQ(wakes, 0);
  cond.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakes, 2);  // each waiter woke once, re-waited
  cond.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakes, 4);
}

TEST(ConditionTest, NotifyOneWakesSingleWaiter) {
  Simulator sim;
  Condition cond(sim);
  int wakes = 0;
  WaitOnCondition(sim, cond, wakes);
  WaitOnCondition(sim, cond, wakes);
  sim.Run();
  cond.NotifyOne();
  sim.Run();
  EXPECT_EQ(wakes, 1);
}

TEST(ConditionTest, DestroyingConditionWithWaitersDoesNotLeakOrCrash) {
  Simulator sim;
  Condition* cond = new Condition(sim);
  int wakes = 0;
  WaitOnCondition(sim, *cond, wakes);
  sim.Run();
  delete cond;  // parked frame destroyed here
  EXPECT_EQ(wakes, 0);
}

Task UseResource(Simulator& sim, Resource& res, SimTime service, std::vector<int64_t>& done) {
  co_await res.Use(service);
  done.push_back(sim.Now().millis());
}

TEST(ResourceTest, ServesFifoSerially) {
  Simulator sim;
  Resource res(sim, "r");
  std::vector<int64_t> done;
  UseResource(sim, res, SimTime::Millis(10), done);
  UseResource(sim, res, SimTime::Millis(5), done);
  UseResource(sim, res, SimTime::Millis(1), done);
  sim.Run();
  EXPECT_EQ(done, (std::vector<int64_t>{10, 15, 16}));
  EXPECT_EQ(res.completed(), 3);
}

TEST(ResourceTest, TracksUtilization) {
  Simulator sim;
  Resource res(sim, "r");
  res.Submit(SimTime::Millis(30), [] {});
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_NEAR(res.Utilization(), 0.3, 1e-9);
  EXPECT_EQ(res.BusyTime(), SimTime::Millis(30));
}

TEST(ResourceTest, UtilizationCountsInProgressWork) {
  Simulator sim;
  Resource res(sim, "r");
  res.Submit(SimTime::Millis(100), [] {});
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_NEAR(res.Utilization(), 1.0, 1e-9);
}

Task AcquireSem(Simulator& sim, Semaphore& sem, int& holders) {
  co_await sem.Acquire();
  ++holders;
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int holders = 0;
  AcquireSem(sim, sem, holders);
  AcquireSem(sim, sem, holders);
  AcquireSem(sim, sem, holders);
  sim.Run();
  EXPECT_EQ(holders, 2);
  sem.Release();
  sim.Run();
  EXPECT_EQ(holders, 3);
}

TEST(SemaphoreTest, ReleaseWithNoWaitersIncrementsCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  sem.Release();
  EXPECT_EQ(sem.count(), 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
}

Co<int> AddAfterDelay(Simulator& sim, int a, int b) {
  co_await sim.Delay(SimTime::Millis(3));
  co_return a + b;
}

Co<int> Doubler(Simulator& sim, int x) {
  const int sum = co_await AddAfterDelay(sim, x, x);
  co_return sum * 2;
}

Task RunCoChain(Simulator& sim, int& result) {
  result = co_await Doubler(sim, 10);
}

TEST(CoTest, NestedCoChainsPropagateValues) {
  Simulator sim;
  int result = 0;
  RunCoChain(sim, result);
  sim.Run();
  EXPECT_EQ(result, 40);
  EXPECT_EQ(sim.Now(), SimTime::Millis(3));
}

Co<void> SleepCo(Simulator& sim, SimTime d) { co_await sim.Delay(d); }

Task DeepChain(Simulator& sim, int& progress) {
  for (int i = 0; i < 100; ++i) {
    co_await SleepCo(sim, SimTime::Millis(1));
    ++progress;
  }
}

TEST(CoTest, AbandonedChainIsReclaimedBySimulatorTeardown) {
  int progress = 0;
  {
    Simulator sim;
    DeepChain(sim, progress);
    sim.RunUntil(SimTime::Millis(50));  // mid-flight: 50 iterations done
  }
  // Simulator destroyed with the chain parked; ASAN/valgrind would flag leaks.
  EXPECT_EQ(progress, 50);
}

// Appends `id` to *log when destroyed; a moved-from instance stays silent.
class DestroyLog {
 public:
  DestroyLog(std::vector<int>* log, int id) : log_(log), id_(id) {}
  DestroyLog(DestroyLog&& other) noexcept
      : log_(std::exchange(other.log_, nullptr)), id_(other.id_) {}
  DestroyLog& operator=(DestroyLog&&) = delete;
  ~DestroyLog() {
    if (log_ != nullptr) {
      log_->push_back(id_);
    }
  }

 private:
  std::vector<int>* log_;
  int id_;
};

Task ParkWithLog(Simulator& sim, SimTime delay, std::vector<int>* log, int id) {
  DestroyLog guard(log, id);
  co_await sim.Delay(delay);
}

TEST(SimulatorTest, TeardownDestroysParkedFramesAndClosuresInPopOrder) {
  std::vector<int> destroyed;
  {
    Simulator sim;
    ParkWithLog(sim, SimTime::Millis(30), &destroyed, 3);
    sim.ScheduleAt(SimTime::Millis(10), [log = DestroyLog(&destroyed, 1)] {});
    EventToken cancelled = sim.ScheduleCancelableAt(SimTime::Millis(20),
                                                    [log = DestroyLog(&destroyed, 2)] {});
    cancelled.Cancel();  // stays queued: one cancelled event never triggers a purge
    ParkWithLog(sim, SimTime::Millis(10), &destroyed, 0);  // same instant, scheduled later
    sim.ScheduleAt(SimTime::Millis(40), [log = DestroyLog(&destroyed, 4)] {});
    EXPECT_EQ(sim.cancelled_pending(), 1);
    EXPECT_TRUE(destroyed.empty());  // Cancel() never destroys the closure
  }
  // Pop order is (at, seq): 10 ms (closure 1, then frame 0), 20 ms, 30 ms, 40 ms.
  EXPECT_EQ(destroyed, (std::vector<int>{1, 0, 2, 3, 4}));
}

TEST(CoTest, AbandonedResourceWaitersAreReclaimed) {
  std::vector<int64_t> done;
  {
    Simulator sim;
    Resource res(sim, "r");
    UseResource(sim, res, SimTime::Seconds(10), done);
    UseResource(sim, res, SimTime::Seconds(10), done);
    sim.RunUntil(SimTime::Seconds(1));
  }
  EXPECT_TRUE(done.empty());
}

Task UseWithLog(Resource& res, SimTime service, std::vector<int>* log, int id, int* finished) {
  DestroyLog guard(log, id);
  co_await res.Use(service);
  ++*finished;
}

TEST(ResourceTest, TeardownDestroysInServiceAndQueuedWaiters) {
  // Resource first: it destroys the waiter in service, then the queue in
  // FIFO order; the Simulator then drops the pending completion unrun.
  std::vector<int> destroyed;
  int finished = 0;
  int called = 0;
  {
    Simulator sim;
    {
      Resource res(sim, "r");
      UseWithLog(res, SimTime::Millis(10), &destroyed, 0, &finished);
      UseWithLog(res, SimTime::Millis(10), &destroyed, 1, &finished);
      res.Submit(SimTime::Millis(10), [&called] { ++called; });
      UseWithLog(res, SimTime::Millis(10), &destroyed, 2, &finished);
      sim.RunUntil(SimTime::Millis(5));
      EXPECT_TRUE(res.busy());
      EXPECT_EQ(res.queue_length(), 3u);
      EXPECT_TRUE(destroyed.empty());
    }
    EXPECT_EQ(destroyed, (std::vector<int>{0, 1, 2}));
    EXPECT_FALSE(sim.Empty());  // the completion call is still queued
  }
  EXPECT_EQ(destroyed, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(finished, 0);
  EXPECT_EQ(called, 0);

  // Simulator first: its teardown calls nothing and destroys no waiter; the
  // Resource still owns both frames and destroys each once.
  destroyed.clear();
  auto sim = std::make_unique<Simulator>();
  {
    Resource res(*sim, "r");
    UseWithLog(res, SimTime::Millis(10), &destroyed, 0, &finished);
    UseWithLog(res, SimTime::Millis(10), &destroyed, 1, &finished);
    sim->RunUntil(SimTime::Millis(5));
    sim.reset();
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<int>{0, 1}));
  EXPECT_EQ(finished, 0);
}

TEST(ResourceTest, FifoHoldsAcrossRingWrapAndGrowth) {
  Simulator sim;
  Resource res(sim, "r");
  std::vector<int> order;
  std::vector<int64_t> done_at;
  int next = 0;
  const auto submit = [&] {
    res.Submit(SimTime::Millis(1), [&, id = next++] {
      order.push_back(id);
      done_at.push_back(sim.Now().millis());
    });
  };
  // Short bursts move the ring's head off zero and wrap it.
  for (int burst = 0; burst < 7; ++burst) {
    for (int i = 0; i < 3; ++i) {
      submit();
    }
    sim.Run();
  }
  // Then far more queued at once than the ring's initial capacity (8), with
  // coroutine waiters between the callbacks, so it grows while wrapped.
  const int64_t start = sim.Now().millis();
  std::vector<int64_t> coro_done;
  for (int i = 0; i < 100; ++i) {
    submit();
    if (i % 10 == 0) {
      UseResource(sim, res, SimTime::Millis(1), coro_done);
    }
  }
  EXPECT_EQ(res.queue_length(), 109u);  // 110 requests, one in service
  sim.Run();

  std::vector<int> expected_order(next);
  for (int i = 0; i < next; ++i) {
    expected_order[i] = i;
  }
  EXPECT_EQ(order, expected_order);
  // Each burst ends with an idle Resource; the big batch runs back to back,
  // each tenth callback followed by one coroutine waiter.
  std::vector<int64_t> expected_done;
  std::vector<int64_t> expected_coro;
  for (int burst = 0; burst < 7; ++burst) {
    for (int i = 1; i <= 3; ++i) {
      expected_done.push_back(burst * 3 + i);
    }
  }
  int64_t t = start;
  for (int i = 0; i < 100; ++i) {
    expected_done.push_back(++t);
    if (i % 10 == 0) {
      expected_coro.push_back(++t);
    }
  }
  EXPECT_EQ(done_at, expected_done);
  EXPECT_EQ(coro_done, expected_coro);
  EXPECT_EQ(res.completed(), 131);
}

Task UseOnce(Resource& res, SimTime service) { co_await res.Use(service); }

// The per-packet hardware path: once the Simulator's slab, the Resource's
// ring and the coroutine frame pool have warmed up, a coroutine Use, a
// callback-free Submit and a DMA chunk allocate nothing.
TEST(AllocationTest, SteadyStateHardwareEventsAllocateNothing) {
  Simulator sim;
  Resource shared(sim, "cpu+bus");
  const MemoryBusParams params;
  MemoryBus bus(sim, params, shared);
  const auto round = [&] {
    UseOnce(shared, SimTime::Micros(10));
    shared.Submit(SimTime::Micros(5), nullptr);
    bus.SubmitDma(params.dma_chunk, SimTime::Micros(20), /*is_write=*/false);
    sim.Run();
  };
  round();
  const int64_t fired_before = sim.events_fired();
  const int64_t before = operator_new_calls.load();
  for (int i = 0; i < 1000; ++i) {
    round();
  }
  EXPECT_EQ(operator_new_calls.load() - before, 0);
  // Each round fires three completions and one DMA chunk.
  EXPECT_EQ(sim.events_fired() - fired_before, 4000);
  EXPECT_EQ(shared.completed(), 3003);
}

}  // namespace
}  // namespace calliope
