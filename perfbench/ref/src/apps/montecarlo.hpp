// Monte-Carlo π estimation (§5.5's real-life application).
//
// Two forms:
//  * estimate_pi — the actual computation, used by the example programs
//    (each worker samples points, counts hits in the inscribed circle);
//  * run_montecarlo_experiment — the §5.5 experiment on the simulated
//    cloud: N workers, evenly-split work, ~10 MB of intermediate state
//    written in-image, in uninterrupted or suspend/resume settings.
#pragma once

#include <cstdint>

#include "cloud/cloud.hpp"
#include "common/status.hpp"

namespace vmstorm::apps {

/// Samples `samples` points; returns the π estimate.
double estimate_pi(std::uint64_t samples, std::uint64_t seed);

/// Merges per-worker (hits, samples) tallies into a π estimate.
struct PiTally {
  std::uint64_t hits = 0;
  std::uint64_t samples = 0;
  void add(const PiTally& o) {
    hits += o.hits;
    samples += o.samples;
  }
  double estimate() const {
    return samples == 0 ? 0.0 : 4.0 * static_cast<double>(hits) /
                                    static_cast<double>(samples);
  }
};
PiTally sample_pi(std::uint64_t samples, std::uint64_t seed);

struct MonteCarloParams {
  std::size_t workers = 100;
  /// Wall compute time per worker (the paper's run computes ~1000 s).
  double compute_seconds = 1000.0;
  /// Intermediate results written inside each VM image (~10 MB).
  Bytes state_bytes = 10 * 1000 * 1000;
  /// Checkpoint steps (writes spread across the computation).
  std::size_t steps = 10;
  vm::BootTraceParams boot;
};

struct MonteCarloOutcome {
  double completion_seconds = 0;  // Fig. 8 bar height
  double deploy_seconds = 0;
  double snapshot_seconds = 0;    // suspend/resume only
  double resume_seconds = 0;      // suspend/resume only
};

/// Uninterrupted setting: multideploy + full computation.
MonteCarloOutcome run_montecarlo_uninterrupted(cloud::Strategy strategy,
                                               cloud::CloudConfig cfg,
                                               const MonteCarloParams& params);

/// Suspend/resume setting: deploy, compute half, snapshot & terminate,
/// redeploy on fresh nodes, compute the rest. Not available for
/// prepropagation (returns error), as in the paper.
Result<MonteCarloOutcome> run_montecarlo_suspend_resume(
    cloud::Strategy strategy, cloud::CloudConfig cfg,
    const MonteCarloParams& params);

}  // namespace vmstorm::apps
