// Shared helpers for the reproduction benches: fixture world, the paper's
// allocate/write/send/read/free cycle, and table printing.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/transfer_facility.h"
#include "src/fbuf/fbuf_system.h"
#include "src/ipc/rpc.h"
#include "src/obs/json.h"
#include "src/sim/rng.h"
#include "src/vm/machine.h"

namespace fbufs {
namespace bench {

// Machine + fbuf system + rpc with a source and a destination user domain
// and a registered two-domain data path; DecStation cost model.
struct BenchWorld {
  explicit BenchWorld(const FbufConfig& fcfg = DefaultFbufConfig())
      : machine(MachineConfig{}), fsys(&machine, fcfg), rpc(&machine) {
    fsys.AttachRpc(&rpc);
    src = machine.CreateDomain("src");
    dst = machine.CreateDomain("dst");
    path = fsys.paths().Register({src->id(), dst->id()});
  }

  static FbufConfig DefaultFbufConfig() {
    FbufConfig f;
    // Table 1 reports clearing separately (57 us/page on the DecStation).
    f.clear_new_pages = false;
    return f;
  }

  Machine machine;
  FbufSystem fsys;
  Rpc rpc;
  Domain* src = nullptr;
  Domain* dst = nullptr;
  PathId path = kNoPath;
};

// One paper cycle through a TransferFacility: write one word per page in the
// originator, send, read one word per page in the receiver, free. When
// |with_ipc| the cycle charges a cross-domain RPC (Figure 3 includes IPC
// latency; Table 1 factors it out by slope).
inline Status OneCycle(BenchWorld& w, TransferFacility& f, std::uint64_t bytes, bool with_ipc,
                       bool reuse_buffer, BufferRef* ref) {
  if (!reuse_buffer) {
    const Status st = f.Alloc(*w.src, bytes, ref);
    if (!Ok(st)) {
      return st;
    }
  }
  Status st = w.src->TouchRange(ref->sender_addr, ref->bytes, Access::kWrite);
  if (!Ok(st)) {
    return st;
  }
  if (with_ipc) {
    w.rpc.ChargeCrossing(*w.src, *w.dst);
  }
  st = f.Send(*ref, *w.src, *w.dst);
  if (!Ok(st)) {
    return st;
  }
  st = w.dst->TouchRange(ref->receiver_addr, ref->bytes, Access::kRead);
  if (!Ok(st)) {
    return st;
  }
  st = f.ReceiverFree(*ref, *w.dst);
  if (!Ok(st)) {
    return st;
  }
  if (!reuse_buffer) {
    st = f.SenderFree(*ref, *w.src);
  }
  return st;
}

// Simulated-time throughput in Mbps for |iters| cycles of |bytes| each.
inline double ThroughputMbps(BenchWorld& w, TransferFacility& f, std::uint64_t bytes,
                             bool with_ipc, bool reuse_buffer, int warmup = 3, int iters = 10) {
  BufferRef ref;
  if (reuse_buffer && !Ok(f.Alloc(*w.src, bytes, &ref))) {
    return -1;
  }
  for (int i = 0; i < warmup; ++i) {
    if (!Ok(OneCycle(w, f, bytes, with_ipc, reuse_buffer, &ref))) {
      return -1;
    }
  }
  const SimTime before = w.machine.clock().Now();
  for (int i = 0; i < iters; ++i) {
    if (!Ok(OneCycle(w, f, bytes, with_ipc, reuse_buffer, &ref))) {
      return -1;
    }
  }
  const SimTime elapsed = w.machine.clock().Now() - before;
  if (reuse_buffer) {
    f.SenderFree(ref, *w.src);
  }
  return static_cast<double>(bytes) * iters * 8.0 * 1000.0 / static_cast<double>(elapsed);
}

// Per-page incremental cost (microseconds) by slope between two sizes, which
// cancels per-message costs exactly as the paper's Table 1 method does.
inline double PerPageSlopeUs(BenchWorld& w, TransferFacility& f, bool reuse_buffer) {
  constexpr std::uint64_t kSmall = 96, kLarge = 192;
  constexpr int kIters = 10;
  auto run = [&](std::uint64_t pages) -> SimTime {
    BufferRef ref;
    if (reuse_buffer && !Ok(f.Alloc(*w.src, pages * kPageSize, &ref))) {
      return 0;
    }
    for (int i = 0; i < 3; ++i) {
      OneCycle(w, f, pages * kPageSize, false, reuse_buffer, &ref);
    }
    const SimTime before = w.machine.clock().Now();
    for (int i = 0; i < kIters; ++i) {
      OneCycle(w, f, pages * kPageSize, false, reuse_buffer, &ref);
    }
    const SimTime elapsed = w.machine.clock().Now() - before;
    if (reuse_buffer) {
      f.SenderFree(ref, *w.src);
    }
    return elapsed;
  };
  const SimTime t1 = run(kSmall);
  const SimTime t2 = run(kLarge);
  return static_cast<double>(t2 - t1) / 1000.0 / (kIters * (kLarge - kSmall));
}

// --- Deterministic heavy-tail generators -------------------------------------
//
// Workload generators for the server macro-benches: Zipf object popularity
// and bounded-Pareto sizes. Seeded on the repo's SplitMix64 Rng (never
// std::rand), and built from IEEE-754 exactly-rounded operations only
// (+ - * / sqrt; pow's rounding is libm-dependent), so the draw sequences
// are bit-identical across platforms and tests can pin them exactly.

// x^(q/4) for integer q >= 0: quarter powers from repeated multiplication
// and correctly-rounded square roots.
inline double PowQuarter(double x, unsigned q) {
  double whole = 1.0;
  for (unsigned i = 0; i < q / 4; ++i) {
    whole *= x;
  }
  double frac = 1.0;
  switch (q % 4) {
    case 0:
      break;
    case 1:
      frac = std::sqrt(std::sqrt(x));
      break;
    case 2:
      frac = std::sqrt(x);
      break;
    case 3:
      frac = std::sqrt(std::sqrt(x)) * std::sqrt(x);
      break;
  }
  return whole * frac;
}

// Zipf popularity: rank r in [1, n] drawn with probability proportional to
// 1 / r^s, the exponent in quarters (s_quarters = 4 ⇒ s = 1.0, the classic
// web-object curve). Inverse CDF over a precomputed cumulative table.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t seed, std::uint64_t n, unsigned s_quarters)
      : rng_(seed), cdf_(n) {
    double cum = 0.0;
    for (std::uint64_t r = 1; r <= n; ++r) {
      cum += 1.0 / PowQuarter(static_cast<double>(r), s_quarters);
      cdf_[r - 1] = cum;
    }
  }

  // Zero-based rank in [0, n); 0 is the most popular object.
  std::uint64_t Next() {
    // 53 mantissa bits of the raw draw: uniform in [0, 1), exactly.
    const double u =
        static_cast<double>(rng_.Next() >> 11) * (1.0 / 9007199254740992.0);
    const double target = u * cdf_.back();
    const std::size_t idx = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), target) - cdf_.begin());
    return std::min<std::uint64_t>(idx, cdf_.size() - 1);
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

// Bounded-Pareto sizes in [x_min, x_max]: x_min * (1/U)^(q/4), a Pareto
// tail with exponent alpha = 4/q (q = 3 ⇒ alpha ≈ 1.33, the classic
// heavy-tailed file-size regime; q = 2 ⇒ alpha = 2, thinner).
class ParetoGenerator {
 public:
  ParetoGenerator(std::uint64_t seed, std::uint64_t x_min, std::uint64_t x_max,
                  unsigned inv_alpha_quarters)
      : rng_(seed), min_(x_min), max_(x_max), q_(inv_alpha_quarters) {}

  std::uint64_t Next() {
    // U in (0, 1]: the +1 keeps it nonzero, so 1/U stays finite.
    const double u = static_cast<double>((rng_.Next() >> 11) + 1) *
                     (1.0 / 9007199254740992.0);
    const double size = static_cast<double>(min_) * PowQuarter(1.0 / u, q_);
    if (!(size < static_cast<double>(max_))) {
      return max_;
    }
    const std::uint64_t s = static_cast<std::uint64_t>(size);
    return s < min_ ? min_ : s;
  }

 private:
  Rng rng_;
  std::uint64_t min_;
  std::uint64_t max_;
  unsigned q_;
};

// --- Output helpers ----------------------------------------------------------

// Machine-readable results: each bench accumulates rows of (key, value)
// fields and writes them as BENCH_<name>.json next to its stdout table, so
// sweeps can be diffed and plotted without scraping text. The document is
// one Json tree, {"bench", "rows", sections...}, printed by the one writer
// (src/obs/json.h).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  JsonReport& BeginRow() {
    rows_.emplace_back();
    return *this;
  }
  JsonReport& Field(const std::string& key, double value) {
    rows_.back().emplace_back(key, value);
    return *this;
  }
  JsonReport& Field(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, value);
    return *this;
  }

  // Extra top-level section, written after "rows" in the order added.
  JsonReport& Section(const std::string& key, Json value) {
    sections_.emplace_back(key, std::move(value));
    return *this;
  }

  // Writes BENCH_<name>.json in the working directory.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    Json::Object doc{{"bench", name_},
                     {"rows", Json::Array(rows_.begin(), rows_.end())}};
    doc.insert(doc.end(), sections_.begin(), sections_.end());
    if (!WriteJsonFile(path, doc)) {
      return false;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<Json::Object> rows_;
  Json::Object sections_;
};

// --- Time attribution --------------------------------------------------------

// Optional extras for TimeAttributionJson, each its own section after the
// fixed by_layer / by_path / by_cpu split.
struct AttributionJsonOptions {
  // When non-null, emit "ring_occupancy_by_path" (time descriptors sat in a
  // transfer-ring SQ, RingHub::PathOccupancyNs). That is latency, not CPU
  // time, so it sits beside by_path, never inside it.
  const std::map<AttrPathId, SimTime>* per_path_ring_occupancy = nullptr;
  // When non-null, emit "by_flow": attributed ns per named flow, where a
  // flow claims a set of path ids (the incast bench: one conversation's
  // header + data paths). This is a pure regrouping of by_path — charges on
  // paths no flow claims are reported under "none". Emitted in the given
  // flow order.
  const std::vector<std::pair<std::string, std::vector<AttrPathId>>>* flows =
      nullptr;
};

// {"<path>": ns, ...} over the nonzero entries of a path-keyed map; "none"
// is the untagged path.
inline Json PathMapJson(const std::map<AttrPathId, SimTime>& by_path) {
  Json::Object out;
  for (const auto& [p, ns] : by_path) {
    if (ns != 0) {
      out.emplace_back(p == kAttrNoPath ? std::string("none") : std::to_string(p), ns);
    }
  }
  return out;
}

// A machine's time-attribution state as a JSON object for a JsonReport
// "time_attribution" section, after hard-checking conservation: attributed
// time must equal the sum of the machine's CPU-lane clocks, and each lane's
// attributed time its own lane clock, exact to the nanosecond. abort()
// rather than assert(): benches build RelWithDebInfo, where NDEBUG would
// silence an assert, and a conservation hole must never ship silently
// inside a BENCH_*.json.
inline Json TimeAttributionJson(Machine& m, const AttributionJsonOptions& opts = {}) {
  const Attribution& attr = m.attribution();
  SimTime now = 0;
  for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
    now += m.cpu_clock(c).Now();
  }
  if (attr.total() != now) {
    std::fprintf(stderr,
                 "time-attribution conservation violated on %s: attributed "
                 "%llu ns, clock %llu ns\n",
                 m.name().c_str(), static_cast<unsigned long long>(attr.total()),
                 static_cast<unsigned long long>(now));
    std::abort();
  }
  Json::Object by_layer;
  for (int i = 0; i < static_cast<int>(CostDomain::kCount); ++i) {
    const CostDomain d = static_cast<CostDomain>(i);
    const SimTime ns = attr.ByLayer(d);
    if (ns != 0) {
      by_layer.emplace_back(CostDomainName(d), ns);
    }
  }
  Json::Array by_cpu;
  for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
    const SimTime lane_ns = attr.ByCpu(c);
    const SimTime lane_clock = m.cpu_clock(c).Now();
    if (lane_ns != lane_clock) {
      std::fprintf(stderr,
                   "per-lane attribution conservation violated on %s cpu%u: "
                   "attributed %llu ns, lane clock %llu ns\n",
                   m.name().c_str(), c, static_cast<unsigned long long>(lane_ns),
                   static_cast<unsigned long long>(lane_clock));
      std::abort();
    }
    by_cpu.emplace_back(lane_ns);
  }
  Json::Object out{{"clock_ns", now},
                   {"attributed_ns", attr.total()},
                   {"by_layer", std::move(by_layer)},
                   {"by_path", PathMapJson(attr.by_path())},
                   {"by_cpu", std::move(by_cpu)}};
  if (opts.per_path_ring_occupancy != nullptr) {
    out.emplace_back("ring_occupancy_by_path", PathMapJson(*opts.per_path_ring_occupancy));
  }
  if (opts.flows != nullptr) {
    // Regroup the per-path totals by flow. Paths claimed by two flows are
    // double-charged — callers own disjointness; the "none" residue keeps
    // the section's total equal to attributed_ns when claims are disjoint.
    std::map<AttrPathId, std::size_t> owner;
    for (std::size_t i = 0; i < opts.flows->size(); ++i) {
      for (const AttrPathId p : (*opts.flows)[i].second) {
        owner.emplace(p, i);
      }
    }
    std::vector<SimTime> per_flow(opts.flows->size(), 0);
    SimTime unclaimed = 0;
    for (const auto& [p, ns] : attr.by_path()) {
      auto it = owner.find(p);
      if (it == owner.end()) {
        unclaimed += ns;
      } else {
        per_flow[it->second] += ns;
      }
    }
    Json::Object by_flow;
    for (std::size_t i = 0; i < opts.flows->size(); ++i) {
      by_flow.emplace_back((*opts.flows)[i].first, per_flow[i]);
    }
    if (unclaimed != 0) {
      by_flow.emplace_back("none", unclaimed);
    }
    out.emplace_back("by_flow", std::move(by_flow));
  }
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintSeriesHeader(const std::vector<std::string>& columns) {
  std::printf("%12s", "size");
  for (const std::string& c : columns) {
    std::printf("  %22s", c.c_str());
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace fbufs

#endif  // BENCH_BENCH_UTIL_H_
