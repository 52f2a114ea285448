#include "src/vm/machine.h"

#include <algorithm>
#include <cassert>

namespace fbufs {

namespace {

std::vector<std::unique_ptr<CpuLane>> MakeLanes(const MachineConfig& config) {
  const std::uint32_t n = std::max<std::uint32_t>(1, config.num_cpus);
  std::vector<std::unique_ptr<CpuLane>> lanes;
  lanes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // A single-CPU machine keeps the historical resource name "cpu/<host>";
    // multicore lanes are "cpu/<host>/<i>".
    std::string name = "cpu/" + config.name;
    if (n > 1) {
      name += "/" + std::to_string(i);
    }
    lanes.push_back(std::make_unique<CpuLane>(std::move(name), i));
  }
  return lanes;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      cpus_(MakeLanes(config)),
      active_clock_(&cpus_[0]->clock()),
      trace_(active_clock_),
      costs_(config.costs),
      pmem_(config.phys_frames, active_clock_, &costs_, &stats_),
      vm_(this) {
  // Attach the time-attribution profiler to every lane clock before any
  // charge can occur, so attr_.total() == sum of lane clocks holds for the
  // Machine's whole life (and per-lane conservation holds via the per-lane
  // total SetActiveCpu selects).
  for (const auto& lane : cpus_) {
    lane->clock().SetChargeHook(&Attribution::ClockHook, &attr_);
  }
  domains_.push_back(std::make_unique<Domain>(this, kKernelDomainId, "kernel",
                                              /*trusted=*/true));
}

void Machine::SetActiveCpu(std::uint32_t i) {
  assert(i < cpus_.size() && "SetActiveCpu: no such lane");
  if (i == active_cpu_) {
    return;
  }
  active_cpu_ = i;
  active_clock_ = &cpus_[i]->clock();
  attr_.SetCpu(i);
  trace_.set_clock(active_clock_);
  pmem_.set_clock(active_clock_);
  // Domains cache the clock in their TLBs; keep them on the active lane.
  for (const auto& d : domains_) {
    if (d != nullptr) {
      d->tlb().set_clock(active_clock_);
    }
  }
}

SimTime Machine::ElapsedNs() const {
  SimTime t = 0;
  for (const auto& lane : cpus_) {
    t = std::max(t, lane->clock().Now());
  }
  return t;
}

Domain* Machine::CreateDomain(const std::string& name, bool trusted) {
  const DomainId id = static_cast<DomainId>(domains_.size());
  domains_.push_back(std::make_unique<Domain>(this, id, name, trusted));
  return domains_.back().get();
}

Domain* Machine::domain(DomainId id) {
  if (id >= domains_.size()) {
    return nullptr;
  }
  return domains_[id].get();
}

void Machine::DestroyDomain(DomainId id) {
  Domain* d = domain(id);
  assert(d != nullptr && d->alive() && "destroying unknown or dead domain");
  assert(id != kKernelDomainId && "the kernel does not terminate");
  for (const TerminationHook& hook : termination_hooks_) {
    hook(*d);
  }
  // Tear down whatever the hooks left behind (private memory, stray
  // mappings). No costs: the domain is gone; cleanup is kernel background
  // work and the paper does not account it.
  std::vector<Vpn> vpns;
  vpns.reserve(d->entries().size());
  for (const auto& [vpn, entry] : d->entries()) {
    vpns.push_back(vpn);
  }
  for (Vpn vpn : vpns) {
    VmEntry* e = d->FindEntry(vpn);
    if (e != nullptr && e->frame != kInvalidFrame) {
      pmem_.Unref(e->frame);
    }
    d->pmap().Remove(vpn);
    d->EraseEntry(vpn);
  }
  d->tlb().FlushAll();
  d->MarkDead();
}

}  // namespace fbufs
