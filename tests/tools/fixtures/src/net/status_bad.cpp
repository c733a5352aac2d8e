// Fixture: status-discipline violations, one per sub-rule.
#include "net/conn.hpp"

namespace fixture {

struct Conn {
  std::vector<std::coroutine_handle<>> waiters_;  // raw-waiter-container

  int naked() {
    auto r = recv_some(1);
    return r.value();  // naked-value: no guard in sight
  }

  void discards() {
    (void)send_all(1);  // void-suppressed-status
  }
};

}  // namespace fixture
