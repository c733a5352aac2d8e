#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>

namespace vmstorm {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSet::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleSet::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

SampleSet::Summary SampleSet::summary() const {
  Summary s;
  s.count = samples_.size();
  if (samples_.empty()) return s;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  s.mean = sum() / static_cast<double>(sorted.size());
  s.min = sorted.front();
  s.max = sorted.back();
  const auto at = [&sorted](double p) {
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  };
  s.p50 = at(50.0);
  s.p95 = at(95.0);
  s.p99 = at(99.0);
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets == 0 ? 1 : buckets, 0) {}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::int64_t idx = width > 0.0
      ? static_cast<std::int64_t>((x - lo_) / width)
      : 0;
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 100.0);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  const double target = p / 100.0 * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return lo_ + width * (static_cast<double>(i) + frac);
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    os << "[" << lo_ + width * static_cast<double>(i) << ","
       << lo_ + width * static_cast<double>(i + 1) << "): " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace vmstorm
