// Co<T>: a lazily-started, awaitable coroutine returning T.
//
// `Co` is the composable async-function type of the codebase: device models
// and server components expose operations as `Co<...>` which callers
// `co_await`. Top-level processes are fire-and-forget `Task`s (task.h).
//
// Frames come from the per-size free lists of frame_pool.h.
//
// Ownership and teardown
// ----------------------
// At any suspension point, a chain of nested Co frames has exactly one
// *innermost* frame, and that frame is owned by its park site (the simulator
// event queue, a Condition wait list, a Resource queue, ...). Outer frames
// are reachable only through `continuation` links. Tearing down a park site
// destroys the innermost frame; the promise destructor then destroys its
// continuation, cascading outward, so an abandoned simulation reclaims whole
// call chains without leaks or double-frees. On the normal completion path
// the continuation link is cleared before the symmetric transfer, so the
// cascade only ever fires for frames cancelled mid-flight.
//
// Parameter rules (enforced by convention throughout the codebase)
// ----------------------------------------------------------------
// 1. Coroutines take parameters BY VALUE (or as pointers/references to
//    objects guaranteed to outlive the coroutine). Lazy start means the body
//    may run after call-site temporaries are destroyed, so reference
//    parameters bound to temporaries dangle.
// 2. Class types passed by value into a coroutine must NOT be aggregates:
//    GCC 12's coroutine parameter copy of aggregates is bitwise, which
//    corrupts SSO string pointers and shared_ptr reference counts. Declaring
//    any constructor (even `= default`) makes the copy well-formed. Types
//    with only trivially-copyable members (ints, enums, SimTime) are safe
//    either way.
#ifndef CALLIOPE_SRC_SIM_CO_H_
#define CALLIOPE_SRC_SIM_CO_H_

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "src/sim/frame_pool.h"

namespace calliope {

template <typename T>
class Co;

namespace co_internal {

template <typename T>
struct ValueStore {
  std::optional<T> value;
  void return_value(T v) { value = std::move(v); }
  T Take() { return std::move(*value); }
};

template <>
struct ValueStore<void> {
  void return_void() {}
  void Take() {}
};

}  // namespace co_internal

template <typename T = void>
class [[nodiscard]] Co {
 public:
  struct promise_type : co_internal::ValueStore<T>, PooledFrame {
    Co* owner = nullptr;
    std::coroutine_handle<> continuation;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Clear the link first: once resumed, the caller owns itself again
        // and must not be destroyed by our promise destructor.
        auto cont = std::exchange(h.promise().continuation, nullptr);
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    [[noreturn]] void unhandled_exception() { std::terminate(); }

    ~promise_type() {
      if (owner != nullptr) {
        owner->handle_ = nullptr;  // frame is going away under the Co object
      }
      if (continuation) {
        continuation.destroy();  // cancelled mid-flight: cascade outward
      }
    }
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {
    if (handle_) {
      handle_.promise().owner = this;
    }
  }
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      Reset();
      handle_ = std::exchange(other.handle_, nullptr);
      if (handle_) {
        handle_.promise().owner = this;
      }
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;

  ~Co() { Reset(); }

  // Awaiting starts the coroutine (lazy start, symmetric transfer).
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    assert(handle_ && "Co awaited twice or after move");
    handle_.promise().continuation = cont;
    // Once running, the frame's ownership moves to whichever park site it
    // suspends at; the Co object must no longer destroy it.
    auto h = handle_;
    handle_.promise().owner = nullptr;
    handle_ = nullptr;
    started_handle_ = h;
    return h;
  }
  T await_resume() {
    auto h = std::coroutine_handle<promise_type>::from_address(started_handle_.address());
    T_or_void_guard guard{h};
    return h.promise().Take();
  }

 private:
  // Destroys the finished frame after Take() even if Take returns by value.
  struct T_or_void_guard {
    std::coroutine_handle<promise_type> h;
    ~T_or_void_guard() { h.destroy(); }
  };

  explicit Co(std::coroutine_handle<promise_type> handle) : handle_(handle) {
    handle_.promise().owner = this;
  }

  void Reset() {
    if (handle_) {
      handle_.promise().owner = nullptr;
      handle_.destroy();  // never started: just drop the frame
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{nullptr};
  std::coroutine_handle<> started_handle_{nullptr};
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_SIM_CO_H_
