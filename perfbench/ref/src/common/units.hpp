// Byte and rate units used throughout vmstorm.
//
// All sizes are expressed in plain uint64_t bytes; the helpers here exist to
// make call sites read like the paper ("2 GB image, 256 KB chunks") and to
// format values for reports.
#pragma once

#include <cstdint>
#include <string>

namespace vmstorm {

using Bytes = std::uint64_t;

inline constexpr Bytes operator""_KiB(unsigned long long v) { return v * 1024ULL; }
inline constexpr Bytes operator""_MiB(unsigned long long v) { return v * 1024ULL * 1024ULL; }
inline constexpr Bytes operator""_GiB(unsigned long long v) { return v * 1024ULL * 1024ULL * 1024ULL; }

inline constexpr Bytes kKiB = 1024ULL;
inline constexpr Bytes kMiB = 1024ULL * 1024ULL;
inline constexpr Bytes kGiB = 1024ULL * 1024ULL * 1024ULL;

/// Renders a byte count with a binary-unit suffix, e.g. "256.0 KiB".
inline std::string format_bytes(double bytes) {
  const char* suffix[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int i = 0;
  while (bytes >= 1024.0 && i < 4) {
    bytes /= 1024.0;
    ++i;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", bytes, suffix[i]);
  return buf;
}

/// Bandwidths are bytes per second (double so fractional MB/s calibrations
/// like the paper's measured 117.5 MB/s are exact).
using BytesPerSecond = double;

inline constexpr BytesPerSecond mb_per_s(double v) { return v * 1000.0 * 1000.0; }
inline constexpr BytesPerSecond mib_per_s(double v) { return v * 1024.0 * 1024.0; }

}  // namespace vmstorm
