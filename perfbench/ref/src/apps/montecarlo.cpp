#include "apps/montecarlo.hpp"

#include "common/rng.hpp"

namespace vmstorm::apps {

PiTally sample_pi(std::uint64_t samples, std::uint64_t seed) {
  Rng rng(seed);
  PiTally t;
  t.samples = samples;
  for (std::uint64_t i = 0; i < samples; ++i) {
    const double x = rng.uniform_double();
    const double y = rng.uniform_double();
    if (x * x + y * y <= 1.0) ++t.hits;
  }
  return t;
}

double estimate_pi(std::uint64_t samples, std::uint64_t seed) {
  return sample_pi(samples, seed).estimate();
}

MonteCarloOutcome run_montecarlo_uninterrupted(cloud::Strategy strategy,
                                               cloud::CloudConfig cfg,
                                               const MonteCarloParams& params) {
  cfg.compute_nodes = params.workers;
  cloud::Cloud cloud(cfg, strategy);
  MonteCarloOutcome out;
  const double t0 = cloud.engine().now_seconds();
  auto dep = cloud.multideploy(params.workers, params.boot);
  out.deploy_seconds = dep.completion_seconds;
  cloud.run_app_phase(params.compute_seconds, params.state_bytes, params.steps);
  out.completion_seconds = cloud.engine().now_seconds() - t0;
  return out;
}

Result<MonteCarloOutcome> run_montecarlo_suspend_resume(
    cloud::Strategy strategy, cloud::CloudConfig cfg,
    const MonteCarloParams& params) {
  if (strategy == cloud::Strategy::kPrepropagation) {
    return failed_precondition("prepropagation cannot snapshot/resume");
  }
  cfg.compute_nodes = params.workers;
  cloud::Cloud cloud(cfg, strategy);
  MonteCarloOutcome out;
  const double t0 = cloud.engine().now_seconds();

  auto dep = cloud.multideploy(params.workers, params.boot);
  out.deploy_seconds = dep.completion_seconds;
  cloud.run_app_phase(params.compute_seconds / 2, params.state_bytes / 2,
                      params.steps / 2 + 1);

  VMSTORM_ASSIGN_OR_RETURN(snap, cloud.multisnapshot());
  out.snapshot_seconds = snap.completion_seconds;

  VMSTORM_ASSIGN_OR_RETURN(resume, cloud.resume_boot(params.boot));
  out.resume_seconds = resume.completion_seconds;

  // Each resumed worker re-reads its intermediate state from the image
  // (remote on the fresh node), then finishes the remaining half.
  cloud.run_app_phase(params.compute_seconds / 2, params.state_bytes / 2,
                      params.steps / 2 + 1);
  out.completion_seconds = cloud.engine().now_seconds() - t0;
  return out;
}

}  // namespace vmstorm::apps
