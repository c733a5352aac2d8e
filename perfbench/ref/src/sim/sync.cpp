#include "sim/sync.hpp"

namespace vmstorm::sim {

Task<void> when_all(Engine& engine, std::vector<Task<void>> tasks) {
  std::vector<JoinHandle> handles;
  handles.reserve(tasks.size());
  for (auto& t : tasks) handles.push_back(engine.spawn(std::move(t)));
  tasks.clear();
  for (auto& h : handles) co_await h.join(engine);
}

namespace {
Task<void> gated(Semaphore* gate, Task<void> inner) {
  co_await gate->acquire();
  struct Release {
    Semaphore* gate;
    ~Release() { gate->release(); }
  } release{gate};
  co_await std::move(inner);
}
}  // namespace

Task<void> when_all_limited(Engine& engine, std::vector<Task<void>> tasks,
                            std::size_t limit) {
  Semaphore gate(engine, limit == 0 ? 1 : limit, "sim.gate");
  std::vector<JoinHandle> handles;
  handles.reserve(tasks.size());
  for (auto& t : tasks) handles.push_back(engine.spawn(gated(&gate, std::move(t))));
  tasks.clear();
  for (auto& h : handles) co_await h.join(engine);
}

}  // namespace vmstorm::sim
