// Simulated time. Integer nanoseconds for exact, platform-independent
// event ordering; helpers convert to/from seconds for reporting.
#pragma once

#include <cstdint>

namespace vmstorm::sim {

/// Nanoseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * 1000;
inline constexpr SimTime kSecond = 1000 * 1000 * 1000;

inline constexpr SimTime from_seconds(double s) {
  return static_cast<SimTime>(s * 1e9 + (s >= 0 ? 0.5 : -0.5));
}

inline constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / 1e9;
}

inline constexpr SimTime from_millis(double ms) { return from_seconds(ms * 1e-3); }
inline constexpr SimTime from_micros(double us) { return from_seconds(us * 1e-6); }

}  // namespace vmstorm::sim
