// Named metrics: gauges and log-scale latency histograms.
//
// A MetricsRegistry is a flat, name-keyed bag of instruments that subsystems
// opt into (a Machine carries an optional registry pointer; everything is
// off — a null check — until a bench or test attaches one). Instruments are
// created on first use and held by stable pointers, so hot paths pay one map
// lookup at attach time, not per observation. Export is deterministic: the
// registry builds a Json tree (src/obs/json.h) in name order with integer
// values only, so same seed means byte-identical JSON.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/clock.h"

namespace fbufs {

class Gauge {
 public:
  void Set(std::int64_t v) {
    value_ = v;
    if (v > max_) {
      max_ = v;
    }
    if (v < min_) {
      min_ = v;
    }
    samples_++;
  }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return samples_ == 0 ? 0 : max_; }
  std::int64_t min() const { return samples_ == 0 ? 0 : min_; }
  std::uint64_t samples() const { return samples_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = INT64_MIN;
  std::int64_t min_ = INT64_MAX;
  std::uint64_t samples_ = 0;
};

// Log2-bucketed histogram: bucket b counts observations in [2^b, 2^(b+1))
// (bucket 0 additionally holds 0). 64 buckets cover the full uint64 range —
// right for latencies spanning nanoseconds to seconds.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(std::uint64_t v) {
    buckets_[BucketFor(v)]++;
    count_++;
    sum_ += v;
    if (count_ == 1 || v < min_) {
      min_ = v;
    }
    if (v > max_) {
      max_ = v;
    }
  }

  static int BucketFor(std::uint64_t v) {
    if (v < 2) {
      return 0;
    }
    int b = 0;
    while (v > 1) {
      v >>= 1;
      b++;
    }
    return b;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket(int b) const { return buckets_[b]; }

  // Log-bucket quantile estimate: finds the bucket where cumulative count
  // crosses q * count, interpolates linearly inside it, and clamps to the
  // observed [min, max]. q <= 0 returns min, q >= 1 returns max, an empty
  // histogram returns 0. Deterministic and allocation-free.
  std::uint64_t ApproxQuantile(double q) const;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  // Instruments are created on first request and live as long as the
  // registry; returned pointers are stable.
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Histogram* GetHistogram(const std::string& name) { return &histograms_[name]; }

  // --- Timestamped sampling (trace counter tracks) ---------------------------
  // Off by default: Sample() is then just Gauge::Set. When enabled, every
  // Sample() also appends a (time, value) point to the gauge's series so the
  // trace exporter can render it as a Chrome counter track. Bounded per
  // series; once full, further points update the gauge but are not logged.
  void EnableTraceSampling(std::size_t max_points_per_series = 65536) {
    sampling_ = true;
    max_points_ = max_points_per_series;
  }
  bool trace_sampling() const { return sampling_; }

  using Series = std::vector<std::pair<SimTime, std::int64_t>>;

  void Sample(const std::string& name, SimTime when, std::int64_t value) {
    GetGauge(name)->Set(value);
    if (sampling_) {
      Series& s = series_[name];
      if (s.size() < max_points_) {
        s.emplace_back(when, value);
      }
    }
  }

  const std::map<std::string, Series>& series() const { return series_; }

  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  // {"gauges": {...}, "histograms": {...}} in name order, integer values
  // only. Empty buckets are omitted from histogram serialization.
  Json ToJson() const;

 private:
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Series> series_;
  bool sampling_ = false;
  std::size_t max_points_ = 0;
};

}  // namespace fbufs

#endif  // SRC_OBS_METRICS_H_
