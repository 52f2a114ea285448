#include "src/obs/metrics.h"

#include <string>
#include <utility>

namespace fbufs {

std::uint64_t Histogram::ApproxQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) {
      continue;
    }
    const std::uint64_t before = seen;
    seen += buckets_[b];
    if (static_cast<double>(seen) >= target) {
      // Interpolate linearly inside bucket b ([2^b, 2^(b+1)-1]; bucket 0
      // holds 0 and 1), then clamp to the observed range so the estimate
      // never leaves [min, max].
      const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << b);
      const std::uint64_t hi =
          b >= 63 ? UINT64_MAX : (std::uint64_t{2} << b) - 1;
      const double frac = (target - static_cast<double>(before)) /
                          static_cast<double>(buckets_[b]);
      std::uint64_t v =
          lo + static_cast<std::uint64_t>(frac * static_cast<double>(hi - lo));
      if (v < min_) {
        v = min_;
      }
      if (v > max_) {
        v = max_;
      }
      return v;
    }
  }
  return max_;
}

Json MetricsRegistry::ToJson() const {
  Json::Object gauges;
  for (const auto& [name, g] : gauges_) {
    gauges.emplace_back(name, Json::Object{{"value", g.value()},
                                           {"min", g.min()},
                                           {"max", g.max()},
                                           {"samples", g.samples()}});
  }
  Json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    Json::Object buckets;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket(b) != 0) {
        buckets.emplace_back(std::to_string(b), h.bucket(b));
      }
    }
    histograms.emplace_back(
        name, Json::Object{{"count", h.count()},
                           {"sum", h.sum()},
                           {"min", h.min()},
                           {"max", h.max()},
                           {"p50", h.ApproxQuantile(0.5)},
                           {"p99", h.ApproxQuantile(0.99)},
                           {"buckets", std::move(buckets)}});
  }
  return Json::Object{{"gauges", std::move(gauges)},
                      {"histograms", std::move(histograms)}};
}

}  // namespace fbufs
