// The Recorder bundles the metrics registry and the tracer into the one
// object instrumented components reach through sim::Engine::recorder().
// A Cloud (or a test) owns a Recorder and attaches it to its engine before
// constructing the simulated components; components cache metric handles
// at construction and record through them on the hot path.
#pragma once

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace vmstorm::obs {

struct Recorder {
  Registry metrics;
  Tracer trace;
  Timeline timeline;
};

}  // namespace vmstorm::obs
