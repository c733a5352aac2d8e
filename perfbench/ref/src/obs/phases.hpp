// Bottleneck-phase analyzer over timeline utilization series.
//
// The paper's deployment pipeline moves through distinct regimes: an early
// repository-bound burst (every instance faults its boot working set out of
// the striped image), a sustained network-bound plateau (NICs saturate
// while provider disks serve from cache), and — under snapshot write
// pressure — a local-disk-bound tail where the dirty-page budget throttles
// writers (the Fig. 5(a) effect). This analyzer segments a run into those
// regimes by comparing three contemporaneous utilization series sampled by
// obs::Timeline:
//
//   util.repo_disk   — mean busy fraction of the repository-role disks;
//   util.network     — mean busy fraction of all NICs;
//   util.local_disk  — dirty-page pressure (dirty bytes / budget), the
//                      write-back throttling signal.
//
// Each sample covers the cadence interval ending at its timestamp. A
// sample where every signal is below the idle threshold is `idle`;
// otherwise the regime is the argmax signal, ties broken by enum order so
// the segmentation is deterministic. Consecutive same-regime samples merge
// into segments; per-regime totals sum exactly to the analyzed duration by
// construction (each sample's interval is attributed to exactly one
// regime), which mirrors the critical-path analyzer's closed-bucket
// invariant and lets the two be cross-checked.
//
// Pure post-processing over exported series: the same code runs in-process
// (Cloud::timeline_json) and over a parsed artifact (vmstormctl timeline),
// producing identical segmentations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace vmstorm::obs {

struct CritReport;

/// Bottleneck regime of one timeline interval. Order is the schema order
/// of the `totals` object and the argmax tie-break order.
enum class Regime {
  kIdle = 0,        ///< every signal below the idle threshold
  kRepoBound,       ///< repository disks are the contended resource
  kNetworkBound,    ///< NICs are the contended resource
  kLocalDiskBound,  ///< dirty-page budget throttles local write-back
};

inline constexpr std::size_t kRegimeCount = 4;

const char* regime_name(Regime r);

struct PhaseOptions {
  /// Signals below this are noise: a sample with all three under it is
  /// classified idle rather than crowned by a meaningless argmax.
  double idle_threshold = 0.05;
  /// Interval covered by the first sample (= the sampler cadence); later
  /// samples use their timestamp delta.
  double cadence_seconds = 0.25;
};

/// One maximal run of consecutive same-regime samples.
struct PhaseSegment {
  Regime regime = Regime::kIdle;
  double start = 0;    ///< simulated seconds (interval start)
  double seconds = 0;  ///< segment length
};

struct PhaseReport {
  std::vector<PhaseSegment> segments;  ///< contiguous, in time order
  std::array<double, kRegimeCount> totals{};  ///< seconds per regime
  double start = 0;     ///< analyzed window start
  double duration = 0;  ///< == sum(totals) by construction
  std::size_t samples = 0;
};

/// Segments the window covered by `time` (sample-end timestamps, ascending)
/// into regimes. The three series must be parallel to `time`.
PhaseReport analyze_phases(const std::vector<double>& time,
                           const std::vector<double>& util_repo,
                           const std::vector<double>& util_net,
                           const std::vector<double>& util_local,
                           const PhaseOptions& opts = {});

/// Deterministic JSON for the artifact's `timeline.phases` object: the
/// closed regime enum, the segment list, per-regime totals, and the
/// analyzed duration.
std::string phases_json(const PhaseReport& report);

/// Internal consistency: segments contiguous, totals sum to duration.
Status check_phase_report(const PhaseReport& report, double tolerance = 1e-6);

/// Cross-check against critical-path attribution from the same run: every
/// attribution row's buckets must sum to its seconds (the critpath closed-
/// sum invariant, re-verified through this independent path), the regime
/// totals must sum to the analyzed duration, and each attributed root span
/// must lie inside the timeline's coverage window (the sampler runs for
/// the whole workload, so a root outside it means the two views describe
/// different runs).
Status cross_check_attribution(const PhaseReport& report,
                               const CritReport& crit,
                               double tolerance = 1e-6);

}  // namespace vmstorm::obs
