// Causal-tracing hooks for the simulator: wait-edge recording and span
// handoff at wake sites.
//
// The primitives in sync.hpp / resource.hpp / storage::Disk call these
// helpers when a coroutine blocks on a shared resource and when the holder
// releases it. A resumed waiter leaves behind a "wait" cost event spanning
// the blocked interval, annotated with the span that held the resource, and
// a Chrome flow arrow from releaser to waiter when they belong to different
// spans. With no Recorder attached (or tracing disabled) every hook reduces
// to a null check — the simulation itself never branches on tracing, so
// enabling a tracer cannot change event order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>

#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace vmstorm::sim {

/// The engine's tracer when a Recorder is attached and tracing is on,
/// else nullptr.
inline obs::Tracer* live_tracer(const Engine& engine) {
  obs::Recorder* rec = engine.recorder();
  return (rec != nullptr && rec->trace.enabled()) ? &rec->trace : nullptr;
}

/// Creates a pooled wait record for handle `h`, capturing the suspending
/// coroutine's span context and the time it blocked.
inline WaitRef make_wait_record(Engine& engine, std::coroutine_handle<> h) {
  return engine.wait_pool().make(h, engine.current_span(),
                                 engine.now_seconds());
}

/// Marks `rec` as released by the current span and schedules its wakeup,
/// restoring the waiter's own span context. Emits the 's' half of a Chrome
/// flow arrow when the releaser belongs to a different span (a genuine
/// cross-coroutine handoff).
inline void wake_waiter(Engine& engine, const WaitRef& rec) {
  rec->waker_span = engine.current_span();
  if (obs::Tracer* tr = live_tracer(engine)) {
    if (rec->waker_span != rec->span) {
      // The arrow belongs to the waiter's span tree: under sampling it is
      // kept or dropped with the waiter, never half-recorded.
      rec->flow = tr->flow_begin(engine.now_seconds(), 0, "wake", rec->span);
    }
  }
  engine.schedule_at(engine.now(), rec);
}

/// Records the wait edge for a waiter that just resumed: the blocked
/// interval as a "wait" cost event with the holder's span, plus the 'f'
/// half of the flow arrow when one was opened. `resource` names the thing
/// waited on ("sim.semaphore", "disk.dirty", "mirror.inflight", ...).
inline void record_wait_edge(Engine& engine, const WaitRecord& rec,
                             const char* resource, std::uint32_t lane = 0) {
  obs::Tracer* tr = live_tracer(engine);
  if (tr == nullptr) return;
  const double now = engine.now_seconds();
  const double waited = now - rec.wait_since;
  if (waited > 0) {
    tr->complete_in(rec.wait_since, waited, lane, "wait", resource,
                    engine.current_span(),
                    {obs::TraceArg::uint("holder", rec.waker_span)});
  }
  if (rec.flow != 0) tr->flow_end(now, lane, "wake", rec.flow);
}

}  // namespace vmstorm::sim
