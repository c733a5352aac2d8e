// Fixture header: the named coroutine the coro-capture fixtures spawn and
// await.
#pragma once

namespace fixture {

sim::Task<void> pump_bytes(int n);

}  // namespace fixture
