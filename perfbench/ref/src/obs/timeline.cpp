#include "obs/timeline.hpp"

#include <cassert>

#include "obs/json.hpp"

namespace vmstorm::obs {

void Timeline::configure(const TimelineConfig& cfg) {
  cfg_ = cfg;
  if (cfg_.capacity == 0) cfg_.capacity = 1;
  if (cfg_.cadence_seconds <= 0) cfg_.cadence_seconds = 0.25;
  samples_taken_ = 0;
  times_.assign(cfg_.capacity, 0.0);
  for (SeriesDef& s : series_) s.ring.assign(cfg_.capacity, 0.0);
}

Timeline::SeriesId Timeline::add_series(std::string name,
                                        TimelineLabels labels) {
  SeriesDef def;
  def.name = std::move(name);
  def.labels = std::move(labels);
  def.ring.assign(cfg_.capacity, 0.0);
  series_.push_back(std::move(def));
  if (times_.size() != cfg_.capacity) times_.assign(cfg_.capacity, 0.0);
  return series_.size() - 1;
}

Timeline::SeriesId Timeline::find_series(std::string_view name) const {
  for (SeriesId i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return i;
  }
  return series_.size();
}

void Timeline::begin_sample(double t) {
  const std::size_t slot =
      static_cast<std::size_t>(samples_taken_ % cfg_.capacity);
  times_[slot] = t;
  for (SeriesDef& s : series_) s.ring[slot] = 0.0;
  ++samples_taken_;
}

void Timeline::record(SeriesId id, double v) {
  assert(samples_taken_ > 0 && "record() before begin_sample()");
  const std::size_t slot =
      static_cast<std::size_t>((samples_taken_ - 1) % cfg_.capacity);
  series_[id].ring[slot] = v;
}

std::size_t Timeline::samples_retained() const {
  return samples_taken_ < cfg_.capacity
             ? static_cast<std::size_t>(samples_taken_)
             : cfg_.capacity;
}

std::vector<double> Timeline::times() const {
  const std::size_t n = samples_retained();
  const std::size_t start = ring_start();
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = times_[(start + i) % cfg_.capacity];
  }
  return out;
}

std::vector<double> Timeline::values(SeriesId id) const {
  const std::size_t n = samples_retained();
  const std::size_t start = ring_start();
  const SeriesDef& s = series_[id];
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = s.ring[(start + i) % cfg_.capacity];
  }
  return out;
}

void Timeline::write_json(JsonWriter& w, std::string_view phases_raw) const {
  const std::size_t n = samples_retained();
  const std::size_t start = ring_start();
  w.begin_object();
  w.key("cadence_seconds").value(cfg_.cadence_seconds);
  w.key("samples").value(static_cast<std::uint64_t>(n));
  w.key("samples_taken").value(samples_taken_);
  w.key("dropped_samples").value(dropped_samples());
  w.key("time").begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    w.value(times_[(start + i) % cfg_.capacity]);
  }
  w.end_array();
  w.key("series").begin_array();
  for (const SeriesDef& s : series_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("labels").begin_object();
    for (const auto& [k, v] : s.labels) w.key(k).value(v);
    w.end_object();
    w.key("values").begin_array();
    for (std::size_t i = 0; i < n; ++i) {
      w.value(s.ring[(start + i) % cfg_.capacity]);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (!phases_raw.empty()) {
    w.key("phases").raw(phases_raw);
  }
  w.end_object();
}

std::string Timeline::to_json(std::string_view phases_raw) const {
  JsonWriter w;
  write_json(w, phases_raw);
  return w.take();
}

void Timeline::clear() {
  samples_taken_ = 0;
  times_.assign(cfg_.capacity, 0.0);
  for (SeriesDef& s : series_) s.ring.assign(cfg_.capacity, 0.0);
}

}  // namespace vmstorm::obs
