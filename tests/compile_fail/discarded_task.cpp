// Must not compile. Discards a sim::Task inside a template instantiation:
// the call is dependent, so its Task type exists only once the template is
// instantiated. A Task that is neither awaited nor spawned never runs. The
// ctest compile_fail_discarded_task passes only when building this file
// fails with an unused-result error.
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace vmstorm::compile_fail {

struct Sleeper {
  sim::Task<void> nap(sim::Engine& e) { co_await e.sleep(1); }
};

template <typename Worker>
void start(Worker& worker, sim::Engine& e) {
  worker.nap(e);
}

void instantiate(sim::Engine& e) {
  Sleeper s;
  start(s, e);
}

}  // namespace vmstorm::compile_fail
