// End-to-end latency decomposition: where a message's time went.
//
// A LatencyDecomposition collects exact per-sample slices of one flow's
// end-to-end latency:
//
//   queue_wait — admission delay before the transport accepted the PDU
//                (backpressure parking, issue-queue overflow)
//   wire       — last transmission to delivery/acknowledgement (serialization
//                + fabric + DMA; Karn-style, excludes earlier losses)
//   dispatch   — delivery-ready to handler-ran (event-loop / dispatch-queue
//                latency on the receiving side)
//   retransmit — first transmission to last transmission (zero unless the
//                PDU was retransmitted)
//   pin_hold   — how long a retained/pinned reference was held (push-to-ack
//                on the sender, pin-to-release in the file server)
//
// Samples are exact (no bucketing); quantiles are nearest-rank over the
// sorted sample set, so p50/p99/p999 are actual observed values and the Json
// tree (src/obs/json.h) is deterministic for same-seed runs. Slices a
// workload never exercises stay empty and report count 0.
#ifndef SRC_OBS_LATENCY_H_
#define SRC_OBS_LATENCY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/clock.h"

namespace fbufs {

struct LatencyDecomposition {
  std::vector<SimTime> queue_wait;
  std::vector<SimTime> wire;
  std::vector<SimTime> dispatch;
  std::vector<SimTime> retransmit;
  std::vector<SimTime> pin_hold;

  // Nearest-rank quantile over a SORTED sample vector: the smallest sample
  // with cumulative rank >= q * n. Empty vectors report 0.
  static SimTime Quantile(const std::vector<SimTime>& sorted, double q) {
    if (sorted.empty()) {
      return 0;
    }
    if (q <= 0.0) {
      return sorted.front();
    }
    if (q >= 1.0) {
      return sorted.back();
    }
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()) + 0.999999);
    if (rank == 0) {
      rank = 1;
    }
    if (rank > sorted.size()) {
      rank = sorted.size();
    }
    return sorted[rank - 1];
  }

  std::uint64_t total_samples() const {
    return static_cast<std::uint64_t>(queue_wait.size() + wire.size() +
                                      dispatch.size() + retransmit.size() +
                                      pin_hold.size());
  }

  void Merge(const LatencyDecomposition& other) {
    auto append = [](std::vector<SimTime>& dst, const std::vector<SimTime>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(queue_wait, other.queue_wait);
    append(wire, other.wire);
    append(dispatch, other.dispatch);
    append(retransmit, other.retransmit);
    append(pin_hold, other.pin_hold);
  }

  // {"queue_wait": {"count": N, "p50": .., "p99": .., "p999": ..}, ...} —
  // one object per slice, fixed order, integer nanoseconds.
  Json ToJson() const {
    const struct {
      const char* name;
      const std::vector<SimTime>* samples;
    } slices[] = {
        {"queue_wait", &queue_wait}, {"wire", &wire},
        {"dispatch", &dispatch},     {"retransmit", &retransmit},
        {"pin_hold", &pin_hold},
    };
    Json::Object out;
    for (const auto& s : slices) {
      std::vector<SimTime> sorted = *s.samples;
      std::sort(sorted.begin(), sorted.end());
      out.emplace_back(s.name, Json::Object{{"count", sorted.size()},
                                            {"p50", Quantile(sorted, 0.5)},
                                            {"p99", Quantile(sorted, 0.99)},
                                            {"p999", Quantile(sorted, 0.999)}});
    }
    return out;
  }
};

}  // namespace fbufs

#endif  // SRC_OBS_LATENCY_H_
