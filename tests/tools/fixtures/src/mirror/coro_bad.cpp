// Fixture: coroutine capture-lifetime violations.
#include "mirror/pump.hpp"

namespace fixture {

struct Pumper {
  int bytes_ = 0;

  void broken_lambda_coro() {
    auto t = [this]() -> sim::Task<void> {  // lambda-coro-capture
      co_await pump_bytes(bytes_);
    };
    (void)t;
  }

  void broken_spawn(sim::Engine& engine) {
    int local = 7;
    engine.spawn(wrap([&local] { return local; }));  // spawned-capture
  }
};

}  // namespace fixture
