#include "obs/selfprof.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace vmstorm::obs {
namespace {

TEST(SelfProfiler, ChargeAccumulatesPerPhase) {
  SelfProfiler prof;
  prof.charge(SelfProfiler::kTracer, 0.25);
  prof.charge(SelfProfiler::kTracer, 0.25);
  prof.charge(SelfProfiler::kQueueOps, 0.125);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kTracer), 0.5);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kQueueOps), 0.125);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kAuditor), 0.0);
  EXPECT_DOUBLE_EQ(prof.run_seconds(), 0.0);
}

TEST(SelfProfiler, DerivedBucketsTileRunTime) {
  SelfProfiler prof;
  prof.charge_run(1.0);
  prof.charge(SelfProfiler::kQueueOps, 0.2);
  prof.charge(SelfProfiler::kAuditor, 0.1);
  prof.charge(SelfProfiler::kResume, 0.5);
  prof.charge(SelfProfiler::kTracer, 0.2);  // nested inside kResume
  EXPECT_NEAR(prof.dispatch_seconds(), 0.2, 1e-12);  // 1.0 - .2 - .1 - .5
  EXPECT_NEAR(prof.user_seconds(), 0.3, 1e-12);      // .5 - .2
}

TEST(SelfProfiler, DerivedBucketsClampAgainstTimerNoise) {
  SelfProfiler prof;
  // Phase timers can sum past the run timer (clock granularity); the
  // derived buckets must clamp rather than go negative.
  prof.charge_run(0.1);
  prof.charge(SelfProfiler::kResume, 0.3);
  prof.charge(SelfProfiler::kTracer, 0.4);
  EXPECT_DOUBLE_EQ(prof.dispatch_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(prof.user_seconds(), 0.0);
}

TEST(SelfProfiler, ResetZeroesEverything) {
  SelfProfiler prof;
  prof.charge_run(2.0);
  for (int p = 0; p < SelfProfiler::kPhaseCount; ++p) {
    prof.charge(static_cast<SelfProfiler::Phase>(p), 1.0);
  }
  prof.reset();
  EXPECT_DOUBLE_EQ(prof.run_seconds(), 0.0);
  for (int p = 0; p < SelfProfiler::kPhaseCount; ++p) {
    EXPECT_DOUBLE_EQ(prof.seconds(static_cast<SelfProfiler::Phase>(p)), 0.0);
  }
}

TEST(SelfProfiler, WallNowIsMonotone) {
  const double t0 = SelfProfiler::wall_now();
  double t1 = t0;
  for (int i = 0; i < 1000; ++i) t1 = SelfProfiler::wall_now();
  EXPECT_GE(t1, t0);
}

TEST(SelfProfiler, RssReadersReportTheProcess) {
#if defined(__linux__)
  // Read VmRSS first: VmHWM is its monotone high-water mark, so a peak
  // sampled afterwards can never be below an earlier current reading.
  const std::uint64_t cur = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GT(peak, 0u);
  EXPECT_GT(cur, 0u);
  EXPECT_GE(peak, cur);
#else
  EXPECT_EQ(peak_rss_bytes(), 0u);
#endif
}

sim::Task<void> napper(sim::Engine& e, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await e.sleep(sim::from_seconds(0.5));
  }
}

TEST(SelfProfiler, EngineTilesItsRunTime) {
  sim::Engine e;
  SelfProfiler prof;
  e.set_profiler(&prof);
  EXPECT_EQ(e.profiler(), &prof);
  for (int i = 0; i < 16; ++i) e.spawn(napper(e, 8));
  e.run();
  e.set_profiler(nullptr);
  EXPECT_GT(prof.run_seconds(), 0.0);
  EXPECT_GT(prof.seconds(SelfProfiler::kQueueOps), 0.0);
  EXPECT_GT(prof.seconds(SelfProfiler::kResume), 0.0);
  // No auditor installed, no tracer attached: those buckets stay empty.
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kAuditor), 0.0);
  EXPECT_DOUBLE_EQ(prof.seconds(SelfProfiler::kTracer), 0.0);
  // Phases never exceed what the run timer saw (they tile it).
  EXPECT_LE(prof.seconds(SelfProfiler::kQueueOps) +
                prof.seconds(SelfProfiler::kAuditor) +
                prof.seconds(SelfProfiler::kResume),
            prof.run_seconds() + 1e-3);
}

}  // namespace
}  // namespace vmstorm::obs
