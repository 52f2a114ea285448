// Time-attribution profiler: where every simulated nanosecond went.
//
// The paper's whole argument is a cost decomposition (Tables 1/2 charge each
// transfer facility per page for clearing, copying, mapping and TLB/cache
// consistency). SimStats counts *operations*; this profiler accounts *time*,
// as three running totals over the same charges:
//
//   * layer  (CostDomain) — which subsystem charged the clock (vm, fbuf,
//     ipc, baseline, proto, net, cache, msg, app, wait);
//   * path   — the I/O data path the work belonged to;
//   * cpu    — the CPU lane whose clock moved.
//
// The accumulator hangs off the host's SimClock via its charge hook, so
// every clock movement — explicit Advance charges and event-delivery waits
// alike — is added once to each total. That makes the conservation
// invariant structural rather than aspirational:
//
//     sum by layer == sum by path == sum by cpu == host clock elapsed.
//
// Charge sites tag themselves with cheap RAII scopes (LayerScope,
// PathScope); the innermost layer wins, so VM work performed on behalf of
// an fbuf transfer is attributed to the VM layer while the fbuf bookkeeping
// around it stays with the fbuf layer. Untagged charges fall into kOther —
// visible, never lost. Event-delivery waits (AdvanceTo) are attributed to
// kWait. Attribution charges zero simulated time itself, so enabling it
// cannot perturb any bench number.
#ifndef SRC_OBS_ATTRIBUTION_H_
#define SRC_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/clock.h"

namespace fbufs {

// Mirrors src/fbuf/fbuf.h (not included here: obs sits below fbuf).
using AttrPathId = std::uint32_t;
inline constexpr AttrPathId kAttrNoPath = static_cast<AttrPathId>(-1);

// The layer a clock charge belongs to. One value per subsystem that charges
// simulated time, plus kWait (event-delivery idle time) and kOther (charges
// no scope claimed).
enum class CostDomain : std::uint8_t {
  kVm = 0,    // page tables, TLB/cache consistency, faults, protection
  kFbuf,      // fbuf allocation, transfer, caching, region bookkeeping
  kIpc,       // cross-domain RPC crossings
  kBaseline,  // copy / COW / remap comparison facilities
  kProto,     // protocol processing (UDP/IP/SWP/test protocols)
  kNet,       // device driver and adapter work
  kCache,     // file cache disk access
  kMsg,       // message-layer data touching (checksums, HBIO copies, fills)
  kApp,       // application data touching (TouchRange word reads/writes)
  kDispatch,  // evented dispatch overhead (enqueue/run scheduling cost)
  kRing,      // shared-memory transfer rings (descriptor writes, doorbells)
  kWait,      // clock moved to an event delivery time (host was idle)
  kOther,     // charge with no enclosing scope
  kCount,
};

const char* CostDomainName(CostDomain d);

class Attribution {
 public:
  Attribution() = default;

  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

  // --- Recording (called from the SimClock charge hook) ----------------------
  void Record(SimTime ns) { Add(CurrentLayer(), ns); }
  void RecordWait(SimTime ns) { Add(CostDomain::kWait, ns); }

  // The SimClock::ChargeHook thunk: |ctx| is the Attribution*.
  static void ClockHook(void* ctx, SimTime ns, bool wait) {
    auto* a = static_cast<Attribution*>(ctx);
    if (wait) {
      a->RecordWait(ns);
    } else {
      a->Record(ns);
    }
  }

  // --- Context (scopes below maintain these) ---------------------------------
  void PushLayer(CostDomain d) {
    if (depth_ < kMaxDepth) {
      stack_[depth_] = d;
    }
    depth_++;
  }
  void PopLayer() { depth_--; }
  CostDomain CurrentLayer() const {
    if (depth_ == 0) {
      return CostDomain::kOther;
    }
    const std::size_t top = depth_ <= kMaxDepth ? depth_ - 1 : kMaxDepth - 1;
    return stack_[top];
  }

  AttrPathId path() const { return path_; }
  // Drops the cached path total; the next charge looks it up (one map
  // lookup per path change that is charged at all, none per layer edge).
  void SetPath(AttrPathId p) {
    if (p != path_) {
      path_ = p;
      path_ns_ = nullptr;
    }
  }
  // The CPU lane charges land on. Maintained by Machine::SetActiveCpu, not
  // by a scope here: the active lane is machine state, not call-site state.
  void SetCpu(std::uint32_t c) {
    if (c >= cpu_ns_.size()) {
      cpu_ns_.resize(c + 1, 0);
    }
    cpu_ = c;
  }

  // --- Inspection -------------------------------------------------------------
  // Total attributed time. The conservation invariant: equals the host
  // clock's Now() whenever the accumulator was attached at clock birth.
  SimTime total() const { return total_; }

  SimTime ByLayer(CostDomain d) const { return layer_ns_[static_cast<std::size_t>(d)]; }
  // Per-lane total: on a multicore machine this equals that lane's clock
  // (per-lane conservation); summed over lanes it equals total().
  SimTime ByCpu(std::uint32_t c) const { return c < cpu_ns_.size() ? cpu_ns_[c] : 0; }
  // Per-path totals, ordered by path id (kAttrNoPath, the untagged path,
  // last). Entries exist only for paths some nonzero charge reached.
  const std::map<AttrPathId, SimTime>& by_path() const { return by_path_; }

 private:
  static constexpr std::size_t kMaxDepth = 16;

  void Add(CostDomain layer, SimTime ns) {
    layer_ns_[static_cast<std::size_t>(layer)] += ns;
    if (path_ns_ == nullptr) {
      path_ns_ = &by_path_[path_];
    }
    *path_ns_ += ns;
    cpu_ns_[cpu_] += ns;
    total_ += ns;
  }

  SimTime layer_ns_[static_cast<std::size_t>(CostDomain::kCount)] = {};
  std::map<AttrPathId, SimTime> by_path_;
  SimTime* path_ns_ = nullptr;  // by_path_[path_], or null until charged
  std::vector<SimTime> cpu_ns_ = std::vector<SimTime>(1, 0);
  SimTime total_ = 0;
  CostDomain stack_[kMaxDepth] = {};
  std::size_t depth_ = 0;
  AttrPathId path_ = kAttrNoPath;
  std::uint32_t cpu_ = 0;
};

// --- Tagging scopes (RAII; nestable; innermost wins) ---------------------------

class LayerScope {
 public:
  LayerScope(Attribution& a, CostDomain d) : a_(&a) { a_->PushLayer(d); }
  ~LayerScope() { a_->PopLayer(); }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Attribution* a_;
};

class PathScope {
 public:
  PathScope(Attribution& a, AttrPathId p) : a_(&a), prev_(a.path()) { a_->SetPath(p); }
  ~PathScope() { a_->SetPath(prev_); }
  PathScope(const PathScope&) = delete;
  PathScope& operator=(const PathScope&) = delete;

 private:
  Attribution* a_;
  AttrPathId prev_;
};

}  // namespace fbufs

#endif  // SRC_OBS_ATTRIBUTION_H_
