// Bonnie++-style filesystem benchmark (§5.4) over imgfs.
//
// Reproduces the phases the paper reports: sequential block write, block
// read, block overwrite (Fig. 6 throughput), then random seeks and file
// create/delete rates (Fig. 7 ops/s). Runs with REAL I/O and wall-clock
// timing against any imgfs-backed device — the mirroring module's
// VirtualDisk or a plain local file — which is exactly the comparison of
// §5.4.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "imgfs/filesystem.hpp"

namespace vmstorm::apps {

struct BonnieConfig {
  /// Total data written/read/overwritten per phase (paper: 800 MB out of a
  /// 2 GB image).
  Bytes total = 256_MiB;
  /// I/O block size (paper: 8 KiB).
  Bytes block = 8_KiB;
  /// Data is spread over files of this size.
  Bytes file_size = 64_MiB;
  std::uint32_t seek_ops = 2000;
  std::uint32_t file_ops = 1000;
  std::uint64_t seed = 2011;
};

struct BonnieResult {
  double block_write_kbps = 0;
  double block_read_kbps = 0;
  double block_overwrite_kbps = 0;
  double random_seeks_per_s = 0;
  double creates_per_s = 0;
  double deletes_per_s = 0;
};

/// Runs all phases on a freshly-formatted `fs`. Returns throughput/ops
/// measured with the host's monotonic clock.
Result<BonnieResult> run_bonnie(imgfs::FileSystem& fs, const BonnieConfig& cfg);

}  // namespace vmstorm::apps
