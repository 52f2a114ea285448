// Machine: one simulated shared-memory host.
//
// Owns the CPU lanes (each with its own clock), cost model, statistics,
// physical memory, the protection domains and the VM manager. Higher layers
// (fbuf system, IPC, devices) attach to a Machine.
//
// Multicore model: a Machine has num_cpus CPU lanes. Each lane is a
// schedulable Resource with its own monotonic SimClock — lanes overlap in
// simulated time, work on one lane is serial. Exactly one lane is *active*
// at any moment of simulation (the simulator itself is single-threaded);
// clock(), trace timestamps and physical-memory charges all route to the
// active lane. Work on a specific CPU runs under CpuScope, is woken there by
// ScheduleOn, or lets a DispatchQueue's context hooks switch. With the default
// num_cpus == 1 nothing ever switches, lane 0's clock is the machine clock,
// and every pre-multicore number is reproduced bit for bit.
#ifndef SRC_VM_MACHINE_H_
#define SRC_VM_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/dispatch.h"
#include "src/sim/event_loop.h"
#include "src/sim/phys_mem.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/vm/domain.h"
#include "src/vm/types.h"
#include "src/vm/vm_manager.h"

namespace fbufs {

class LifecycleTracker;

struct MachineConfig {
  std::uint32_t phys_frames = 16384;  // 64 MB of simulated physical memory
  std::uint32_t tlb_entries = Tlb::kDefaultEntries;
  CostParams costs = CostParams::DecStation5000();
  std::string name = "host";
  // Number of CPU lanes. 1 preserves the single-clock model exactly.
  std::uint32_t num_cpus = 1;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig());

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // The active CPU lane's clock. With one lane this is *the* machine clock;
  // with several it is the timeline of whichever lane is currently running.
  SimClock& clock() { return *active_clock_; }
  const SimClock& clock() const { return *active_clock_; }

  std::uint32_t num_cpus() const { return static_cast<std::uint32_t>(cpus_.size()); }
  CpuLane& cpu_lane(std::uint32_t i) { return *cpus_[i]; }
  const CpuLane& cpu_lane(std::uint32_t i) const { return *cpus_[i]; }
  SimClock& cpu_clock(std::uint32_t i) { return cpus_[i]->clock(); }
  const SimClock& cpu_clock(std::uint32_t i) const { return cpus_[i]->clock(); }
  std::uint32_t active_cpu() const { return active_cpu_; }

  // Switches the active lane: subsequent clock()/trace/pmem charges land on
  // lane |i| and in its attribution total. Prefer CpuScope.
  void SetActiveCpu(std::uint32_t i);

  // The machine-wide elapsed time: the furthest lane's clock. Equals
  // clock().Now() on a single-CPU machine.
  SimTime ElapsedNs() const;

  const CostParams& costs() const { return costs_; }
  CostParams& mutable_costs() { return costs_; }
  SimStats& stats() { return stats_; }
  PhysMem& pmem() { return pmem_; }
  VmManager& vm() { return vm_; }
  Trace& trace() { return trace_; }
  Attribution& attribution() { return attr_; }
  const Attribution& attribution() const { return attr_; }

  // Optional metrics sink; null until a bench or test attaches one. Hot
  // paths guard every observation with this null check.
  MetricsRegistry* metrics() { return metrics_; }
  void AttachMetrics(MetricsRegistry* m) { metrics_ = m; }

  // Optional fbuf provenance tracker (src/obs/lifecycle.h); same attach
  // discipline as metrics — null until a bench, campaign or test opts in.
  LifecycleTracker* lifecycle() { return lifecycle_; }
  void AttachLifecycle(LifecycleTracker* t) { lifecycle_ = t; }

  const std::string& name() const { return config_.name; }
  std::uint32_t tlb_entries() const { return config_.tlb_entries; }

  // Domain 0 is the kernel (created at construction, trusted).
  Domain& kernel() { return *domains_[kKernelDomainId]; }

  // Creates a user protection domain. Pointers remain valid for the life of
  // the Machine (dead domains are kept as tombstones).
  Domain* CreateDomain(const std::string& name, bool trusted = false);

  // nullptr if the id is unknown; dead domains are still returned (check
  // alive()).
  Domain* domain(DomainId id);

  // Tears a domain down: runs termination hooks (fbuf cleanup), then unmaps
  // everything and marks the domain dead. Models both orderly exit and crash
  // (the hooks see which references were never relinquished).
  void DestroyDomain(DomainId id);

  // Hooks run at the start of DestroyDomain, before mappings are torn down.
  using TerminationHook = std::function<void(Domain&)>;
  void AddTerminationHook(TerminationHook hook) {
    termination_hooks_.push_back(std::move(hook));
  }

  std::size_t domain_count() const { return domains_.size(); }

 private:
  MachineConfig config_;
  Attribution attr_;
  // Lanes precede every member that captures a clock pointer (trace_, pmem_).
  std::vector<std::unique_ptr<CpuLane>> cpus_;
  std::uint32_t active_cpu_ = 0;
  SimClock* active_clock_ = nullptr;
  Trace trace_;
  MetricsRegistry* metrics_ = nullptr;
  LifecycleTracker* lifecycle_ = nullptr;
  CostParams costs_;
  SimStats stats_;
  PhysMem pmem_;
  VmManager vm_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<TerminationHook> termination_hooks_;
};

// RAII active-CPU switch: runs the enclosed work on lane |cpu|, restores the
// previously active lane on exit. No-cost when the lane is already active.
class CpuScope {
 public:
  CpuScope(Machine& m, std::uint32_t cpu) : m_(&m), prev_(m.active_cpu()) {
    if (cpu != prev_) {
      m_->SetActiveCpu(cpu);
    }
  }
  ~CpuScope() {
    if (m_->active_cpu() != prev_) {
      m_->SetActiveCpu(prev_);
    }
  }
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

 private:
  Machine* m_;
  std::uint32_t prev_;
};

// The one way to wake a host: runs |fn| on lane |cpu| of |machine| at |t|,
// keyed like EventLoop::ScheduleAtLeast. The lane's clock first moves up to
// |t| (a lane already past it stays put), inside the CpuScope so the wait is
// attributed to |cpu|. Events that wake no host use the loop directly.
template <typename Fn>
EventLoop::EventId ScheduleOn(EventLoop& loop, Machine& machine,
                              std::uint32_t cpu, SimTime t, std::string label,
                              Fn fn) {
  return loop.ScheduleAtLeast(
      t, std::move(label), [&machine, cpu, t, fn = std::move(fn)]() mutable {
        CpuScope scope(machine, cpu);
        machine.cpu_clock(cpu).AdvanceToAtLeast(t);
        fn();
      });
}

}  // namespace fbufs

#endif  // SRC_VM_MACHINE_H_
