// Time-attribution profiler: where every simulated nanosecond went.
//
// The paper's whole argument is a cost decomposition (Tables 1/2 charge each
// transfer facility per page for clearing, copying, mapping and TLB/cache
// consistency). SimStats counts *operations*; this profiler accounts *time*,
// broken down three ways at once:
//
//   * layer  (CostDomain) — which subsystem charged the clock (vm, fbuf,
//     ipc, baseline, proto, net, cache, msg, app, wait);
//   * actor  — the protection domain on whose behalf the charge was made;
//   * path   — the I/O data path the work belonged to.
//
// The accumulator hangs off the host's SimClock via its charge hook, so
// every clock movement — explicit Advance charges and event-delivery waits
// alike — lands in exactly one (layer, actor, path) cell. That makes the
// conservation invariant structural rather than aspirational:
//
//     sum over all cells == host clock elapsed, always.
//
// Charge sites tag themselves with cheap RAII scopes (LayerScope,
// ActorScope, PathScope); the innermost layer wins, so VM work performed on
// behalf of an fbuf transfer is attributed to the VM layer while the fbuf
// bookkeeping around it stays with the fbuf layer. Untagged charges fall
// into kOther — visible, never lost. Event-delivery waits (AdvanceTo) are
// attributed to kWait. Attribution charges zero simulated time itself, so
// enabling it cannot perturb any bench number.
#ifndef SRC_OBS_ATTRIBUTION_H_
#define SRC_OBS_ATTRIBUTION_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/sim/clock.h"
#include "src/vm/types.h"

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
  // One accumulation cell: (layer, acting domain, path, cpu). Ordered so
  // serialization is deterministic. The cpu dimension is 0 for the whole
  // life of a single-CPU machine, so single-CPU cell sets are unchanged.
  struct Key {
    CostDomain layer = CostDomain::kOther;
    DomainId domain = kInvalidDomainId;
    AttrPathId path = kAttrNoPath;
    std::uint32_t cpu = 0;

    bool operator<(const Key& o) const {
      if (layer != o.layer) {
        return layer < o.layer;
      }
      if (domain != o.domain) {
        return domain < o.domain;
      }
      if (path != o.path) {
        return path < o.path;
      }
      return cpu < o.cpu;
    }
    bool operator==(const Key& o) const {
      return layer == o.layer && domain == o.domain && path == o.path && cpu == o.cpu;
    }
  };

  Attribution() = default;

  Attribution(const Attribution&) = delete;
  Attribution& operator=(const Attribution&) = delete;

  // --- Recording (called from the SimClock charge hook) ----------------------
  void Record(SimTime ns) {
    if (work_cell_ == nullptr) {
      work_cell_ = &cells_[Key{CurrentLayer(), actor_, path_, cpu_}];
    }
    *work_cell_ += ns;
    total_ += ns;
  }
  void RecordWait(SimTime ns) {
    if (wait_cell_ == nullptr) {
      wait_cell_ = &cells_[Key{CostDomain::kWait, actor_, path_, cpu_}];
    }
    *wait_cell_ += ns;
    total_ += ns;
  }

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
    work_cell_ = nullptr;
  }
  void PopLayer() {
    depth_--;
    work_cell_ = nullptr;
  }
  CostDomain CurrentLayer() const {
    if (depth_ == 0) {
      return CostDomain::kOther;
    }
    const std::size_t top = depth_ <= kMaxDepth ? depth_ - 1 : kMaxDepth - 1;
    return stack_[top];
  }

  DomainId actor() const { return actor_; }
  void SetActor(DomainId d) {
    actor_ = d;
    Invalidate();
  }
  AttrPathId path() const { return path_; }
  void SetPath(AttrPathId p) {
    path_ = p;
    Invalidate();
  }
  std::uint32_t cpu() const { return cpu_; }
  // The CPU lane charges land on. Maintained by Machine::SetActiveCpu, not
  // by a scope here: the active lane is machine state, not call-site state.
  void SetCpu(std::uint32_t c) {
    cpu_ = c;
    Invalidate();
  }

  // --- Inspection -------------------------------------------------------------
  // Total attributed time. The conservation invariant: equals the host
  // clock's Now() whenever the accumulator was attached at clock birth.
  SimTime total() const { return total_; }

  SimTime ByLayer(CostDomain d) const;
  SimTime ByDomain(DomainId d) const;
  SimTime ByPath(AttrPathId p) const;
  // Per-lane total: on a multicore machine this equals that lane's clock
  // (per-lane conservation); summed over lanes it equals total().
  SimTime ByCpu(std::uint32_t c) const;
  const std::map<Key, SimTime>& cells() const { return cells_; }

  // A value-semantics copy for windowed measurement (bench warmup).
  struct Snapshot {
    std::map<Key, SimTime> cells;
    SimTime total = 0;

    // Cell-wise difference against an earlier snapshot of the same
    // accumulator (assumes monotonic growth).
    Snapshot Since(const Snapshot& base) const;
  };
  Snapshot Take() const { return Snapshot{cells_, total_}; }

 private:
  static constexpr std::size_t kMaxDepth = 16;

  // Drops both cached cell pointers after an actor, path or cpu change (a
  // layer change drops only work_cell_: waits are always keyed kWait). Scope
  // edges are therefore two stores; the first Record or RecordWait under the
  // new context resolves its cell with one map lookup, and later charges in
  // the same context are two additions. Cells are created only when a
  // nonzero charge lands (SimClock never hooks a zero move), so cells()
  // holds no zero entries.
  void Invalidate() {
    work_cell_ = nullptr;
    wait_cell_ = nullptr;
  }

  std::map<Key, SimTime> cells_;
  SimTime total_ = 0;
  SimTime* work_cell_ = nullptr;
  SimTime* wait_cell_ = nullptr;
  CostDomain stack_[kMaxDepth] = {};
  std::size_t depth_ = 0;
  DomainId actor_ = kInvalidDomainId;
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

class ActorScope {
 public:
  ActorScope(Attribution& a, DomainId d) : a_(&a), prev_(a.actor()) { a_->SetActor(d); }
  ~ActorScope() { a_->SetActor(prev_); }
  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  Attribution* a_;
  DomainId prev_;
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
