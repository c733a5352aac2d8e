// The bench_scale workload configuration, shared between the bench binary
// and the determinism regression test.
//
// bench/baselines/BENCH_engine{,_quick}.json were produced by exactly this
// config (quick = 256 instances, full = 10240); the "sim" section of those
// artifacts is a pure function of it plus the seed. Keeping the config in
// one place means the regression test that replays the workload and diffs
// the deterministic counters against the committed baseline can never drift
// from what the bench actually ran.
#pragma once

#include <cstddef>

#include "cloud/cloud.hpp"
#include "common/units.hpp"
#include "vm/boot_trace.hpp"

namespace vmstorm::cloud {

/// Instance counts the committed BENCH_engine baselines were recorded at.
inline constexpr std::size_t kScaleQuickNodes = 256;
inline constexpr std::size_t kScaleFullNodes = 10240;

/// Small per-instance image so the run is event-bound, not byte-bound: the
/// point is engine throughput, not transfer modeling.
inline CloudConfig scale_config(std::size_t nodes) {
  CloudConfig cfg;
  cfg.compute_nodes = nodes;
  cfg.image_size = 32_MiB;
  cfg.chunk_size = 256_KiB;
  cfg.qcow_cluster_size = 64_KiB;
  cfg.broadcast.chunk_size = 1_MiB;
  cfg.seed = 2011;
  return cfg;
}

inline vm::BootTraceParams scale_trace() {
  vm::BootTraceParams p;
  p.image_size = 32_MiB;
  p.read_volume = 2_MiB;
  p.write_volume = 256_KiB;
  p.cpu_seconds = 1.0;
  return p;
}

}  // namespace vmstorm::cloud
