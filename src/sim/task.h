// Fire-and-forget coroutine processes for the simulator.
//
// A `Task` coroutine starts eagerly and detaches: its frame destroys itself
// (back to the free lists of frame_pool.h) when the body finishes. While
// suspended it is owned by its park site (event queue, Condition or
// Resource), which destroys it if the simulation is torn down.
//
// Convention: processes that someone must wait for signal a Condition (or set
// a flag) before returning; there is deliberately no join on Task itself.
#ifndef CALLIOPE_SRC_SIM_TASK_H_
#define CALLIOPE_SRC_SIM_TASK_H_

#include <coroutine>
#include <exception>

#include "src/sim/frame_pool.h"

namespace calliope {

class Task {
 public:
  struct promise_type : PooledFrame {
    Task get_return_object() { return Task{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() { std::terminate(); }
  };
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_SIM_TASK_H_
