// Fixture: disciplined Status handling — zero findings, including via the
// legacy lint:allow compatibility shim.
#include "net/conn.hpp"

namespace fixture {

struct Conn {
  std::vector<std::shared_ptr<sim::WaitRecord>> waiters_;  // guarded storage

  int guarded() {
    auto r = recv_some(1);
    if (!r.is_ok()) return -1;
    return r.value();
  }

  int legacy_escape() {
    auto r = recv_some(2);
    // lint:allow(naked-value) fixture exercises the legacy escape spelling
    return r.value();
  }

  Status propagates() { return send_all(1); }
};

}  // namespace fixture
