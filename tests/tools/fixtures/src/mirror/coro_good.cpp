// Fixture: safe coroutine patterns — must produce zero findings.
#include "mirror/pump.hpp"

namespace fixture {

struct Pumper {
  int bytes_ = 0;

  // Capture-free lambda coroutine: nothing to dangle.
  void capture_free_lambda() {
    auto t = []() -> sim::Task<void> { co_return; };
    (void)t;
  }

  // Named coroutine handed to spawn by value: parameters live in the frame.
  void safe_spawn(sim::Engine& engine) {
    engine.spawn(pump_bytes(bytes_));
  }

  // Plain (non-coroutine) capturing lambda outside spawn is fine.
  int safe_lambda() {
    auto f = [this] { return bytes_; };
    return f();
  }

  sim::Task<void> safe_await() { co_await pump_bytes(1); }
};

}  // namespace fixture
