// Descriptive statistics used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vmstorm {

/// Welford's online mean/variance plus min/max.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples; supports exact percentiles.
class SampleSet {
 public:
  /// Fixed five-number-style digest of a sample set.
  struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  void add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  double sum() const;
  /// p in [0,100]; linear interpolation between order statistics.
  double percentile(double p) const;
  /// Digest computed with a single sort (cheaper than repeated percentile()).
  Summary summary() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);
  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  std::uint64_t total() const { return total_; }
  /// p in [0,100]; walks the cumulative counts and interpolates linearly
  /// within the bucket that crosses the target rank. Returns lo when empty.
  double percentile(double p) const;
  std::string to_string() const;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace vmstorm
