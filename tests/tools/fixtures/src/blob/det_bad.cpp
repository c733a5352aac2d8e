// Fixture: determinism violations (one per construct the rule bans).
#include <chrono>
#include <cstdlib>
#include <random>
#include <unordered_map>

namespace fixture {

struct Counters {
  std::unordered_map<int, long> by_node_;
  long total() const {
    long t = 0;
    for (const auto& [k, v] : by_node_) t += v;  // hash-order-iter
    return t;
  }
};

inline double wall_seconds() {
  const auto t0 = std::chrono::steady_clock::now();  // wall-clock
  return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

inline int ambient_random() {
  std::random_device rd;           // random-device
  return rand() + static_cast<int>(rd());  // ambient-rand
}

inline long ambient_rand48() {
  long x = lrand48();    // bare-lrand48
  x += mrand48();        // bare-mrand48
  return x + random();   // bare-random
}

inline unsigned raw_engine() {
  std::mt19937 gen(42);  // std-random-engine
  return gen();
}

}  // namespace fixture
