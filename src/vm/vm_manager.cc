#include "src/vm/vm_manager.h"

#include <cassert>
#include <cstring>

#include "src/vm/address_space.h"
#include "src/vm/machine.h"

namespace fbufs {

namespace {
// Effective low-level protection for an entry: copy-on-write pages are
// entered read-only so stores trap.
Prot PmapProt(const VmEntry& e) { return e.cow && CanWrite(e.prot) ? Prot::kRead : e.prot; }
}  // namespace

Status VmManager::MaterializeFrame(Domain& d, Vpn vpn, VmEntry& entry, bool clear) {
  (void)d;
  (void)vpn;
  auto frame = machine_->pmem().Allocate(clear);
  if (!frame.has_value()) {
    return Status::kNoMemory;
  }
  entry.frame = *frame;
  return Status::kOk;
}

Status VmManager::MapAnonymous(Domain& d, VirtAddr base, std::uint64_t pages, Prot prot,
                               bool eager, bool clear, ChargeMode mode) {
  SimClock& clock = machine_->clock();
  const CostParams& c = machine_->costs();
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const Vpn vpn = PageOf(base) + i;
    assert(d.FindEntry(vpn) == nullptr && "mapping over an existing page");
    VmEntry e;
    e.prot = prot;
    e.zero_fill = clear;
    if (mode == ChargeMode::kGeneral) {
      clock.Advance(c.alloc_page_kernel_ns);
    }
    if (eager) {
      const Status st = MaterializeFrame(d, vpn, e, clear);
      if (!Ok(st)) {
        // Partial failure: give back the pages this call already mapped, or
        // their frames stay pinned with no fbuf/buffer ever created.
        Unmap(d, base, i, mode);
        return st;
      }
      d.pmap().Set(vpn, e.frame, PmapProt(e));
      e.pmap_valid = true;
      clock.Advance(c.pt_update_ns);
    }
    d.InsertEntry(vpn, e);
  }
  return Status::kOk;
}

Status VmManager::MapFrame(Domain& d, Vpn vpn, FrameId frame, Prot prot, ChargeMode mode) {
  SimClock& clock = machine_->clock();
  const CostParams& c = machine_->costs();
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  TraceSpan span(machine_->trace(), TraceCategory::kVm, "map-frame", d.id(), AddrOf(vpn));
  machine_->pmem().Ref(frame);
  VmEntry* existing = d.FindEntry(vpn);
  if (existing != nullptr) {
    if (existing->frame != kInvalidFrame) {
      machine_->pmem().Unref(existing->frame);
    }
    // Replacing a live translation requires a consistency action.
    d.tlb().FlushPage(vpn);
  }
  VmEntry e;
  e.prot = prot;
  e.frame = frame;
  e.zero_fill = false;
  e.pmap_valid = true;
  d.InsertEntry(vpn, e);
  d.pmap().Set(vpn, frame, prot);
  clock.Advance(c.pt_update_ns);
  if (mode == ChargeMode::kGeneral) {
    clock.Advance(c.remap_page_overhead_ns / 2);
  }
  return Status::kOk;
}

Status VmManager::Unmap(Domain& d, VirtAddr base, std::uint64_t pages, ChargeMode mode) {
  SimClock& clock = machine_->clock();
  const CostParams& c = machine_->costs();
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const Vpn vpn = PageOf(base) + i;
    VmEntry* e = d.FindEntry(vpn);
    if (e == nullptr) {
      continue;
    }
    if (e->pmap_valid) {
      d.pmap().Remove(vpn);
      clock.Advance(c.pt_update_ns);
      d.tlb().FlushPage(vpn);
    }
    if (e->frame != kInvalidFrame) {
      machine_->pmem().Unref(e->frame);
    }
    if (mode == ChargeMode::kGeneral) {
      clock.Advance(c.remap_page_overhead_ns / 2);
    }
    d.EraseEntry(vpn);
  }
  return Status::kOk;
}

Status VmManager::Protect(Domain& d, VirtAddr base, std::uint64_t pages, Prot prot,
                          bool trap_inclusive) {
  SimClock& clock = machine_->clock();
  const CostParams& c = machine_->costs();
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  machine_->trace().Emit(TraceCategory::kVm, "protect", d.id(), base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const Vpn vpn = PageOf(base) + i;
    VmEntry* e = d.FindEntry(vpn);
    if (e == nullptr) {
      return Status::kNotMapped;
    }
    e->prot = prot;
    if (e->pmap_valid) {
      d.pmap().SetProt(vpn, PmapProt(*e));
    }
    if (trap_inclusive) {
      // One inclusive trap covers the pt update and the TLB invalidation.
      clock.Advance(c.prot_change_ns);
      machine_->stats().tlb_flushes++;
      d.tlb().InvalidatePage(vpn);
    } else {
      if (e->pmap_valid) {
        clock.Advance(c.pt_update_ns);
      }
      d.tlb().FlushPage(vpn);
    }
  }
  return Status::kOk;
}

Status VmManager::ShareCow(Domain& src, VirtAddr src_base, Domain& dst, VirtAddr dst_base,
                           std::uint64_t pages) {
  for (std::uint64_t i = 0; i < pages; ++i) {
    const Vpn svpn = PageOf(src_base) + i;
    const Vpn dvpn = PageOf(dst_base) + i;
    VmEntry* se = src.FindEntry(svpn);
    if (se == nullptr) {
      return Status::kNotMapped;
    }
    if (se->frame == kInvalidFrame) {
      // Never touched: receiver gets its own zero-fill page; nothing shared.
      VmEntry de;
      de.prot = Prot::kReadWrite;
      de.zero_fill = se->zero_fill;
      dst.InsertEntry(dvpn, de);
      continue;
    }
    // Lazy strategy: mark both machine-independent entries COW and drop the
    // low-level state; the per-page cost is deferred to the two faults.
    se->cow = true;
    if (se->pmap_valid) {
      src.pmap().Remove(svpn);
      se->pmap_valid = false;
    }
    src.tlb().InvalidatePage(svpn);
    machine_->pmem().Ref(se->frame);
    VmEntry de;
    de.prot = Prot::kReadWrite;
    de.frame = se->frame;
    de.cow = true;
    de.zero_fill = false;
    VmEntry* old = dst.FindEntry(dvpn);
    if (old != nullptr) {
      if (old->frame != kInvalidFrame) {
        machine_->pmem().Unref(old->frame);
      }
      if (old->pmap_valid) {
        dst.pmap().Remove(dvpn);
      }
      dst.tlb().InvalidatePage(dvpn);
    }
    dst.InsertEntry(dvpn, de);
  }
  return Status::kOk;
}

Status VmManager::Remap(Domain& src, VirtAddr src_base, Domain& dst, VirtAddr dst_base,
                        std::uint64_t pages) {
  SimClock& clock = machine_->clock();
  const CostParams& c = machine_->costs();
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  for (std::uint64_t i = 0; i < pages; ++i) {
    const Vpn svpn = PageOf(src_base) + i;
    const Vpn dvpn = PageOf(dst_base) + i;
    VmEntry* se = src.FindEntry(svpn);
    if (se == nullptr) {
      return Status::kNotMapped;
    }
    VmEntry moved = *se;
    moved.cow = false;
    // Remove from the source: pt update + TLB consistency + two-level
    // bookkeeping (this is the general-purpose path the paper's §2.2
    // measures).
    if (se->pmap_valid) {
      src.pmap().Remove(svpn);
      clock.Advance(c.pt_update_ns);
      src.tlb().FlushPage(svpn);
    }
    src.EraseEntry(svpn);
    clock.Advance(c.remap_page_overhead_ns);
    // Enter into the destination.
    assert(dst.FindEntry(dvpn) == nullptr && "remap target already mapped");
    if (moved.frame != kInvalidFrame) {
      dst.pmap().Set(dvpn, moved.frame, PmapProt(moved));
      moved.pmap_valid = true;
      clock.Advance(c.pt_update_ns);
    } else {
      moved.pmap_valid = false;
    }
    dst.InsertEntry(dvpn, moved);
  }
  return Status::kOk;
}

Status VmManager::HandleFault(Domain& d, Vpn vpn, Access access) {
  SimClock& clock = machine_->clock();
  const CostParams& c = machine_->costs();
  SimStats& stats = machine_->stats();
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  TraceSpan span(machine_->trace(), TraceCategory::kVm, "vm-fault", d.id(), AddrOf(vpn));
  VmEntry* e = d.FindEntry(vpn);

  // The fbuf region has its own fault semantics (absent-data reads, lazy
  // on-demand mapping, page-in of swapped fbuf pages): hand the hook every
  // region fault it can possibly resolve.
  if (InFbufRegion(AddrOf(vpn)) && fbuf_hook_ &&
      (e == nullptr || !Allows(e->prot, access) || e->frame == kInvalidFrame)) {
    return fbuf_hook_(d, vpn, access);
  }
  if (e == nullptr) {
    stats.prot_faults++;
    return Status::kNotMapped;
  }

  if (!Allows(e->prot, access)) {
    stats.prot_faults++;
    return Status::kProtection;
  }

  // Permitted by the machine-independent map: a resolvable fault.
  if (access == Access::kWrite && e->cow && e->frame != kInvalidFrame) {
    machine_->trace().Emit(TraceCategory::kVm, "fault-cow-write", d.id(), AddrOf(vpn));
    clock.Advance(c.page_fault_ns);
    stats.page_faults++;
    if (machine_->pmem().RefCount(e->frame) > 1) {
      // Still shared: copy the page.
      auto copy = machine_->pmem().Allocate(/*clear=*/false);
      if (!copy.has_value()) {
        return Status::kNoMemory;
      }
      std::memcpy(machine_->pmem().Data(*copy), machine_->pmem().Data(e->frame), kPageSize);
      clock.Advance(c.CopyCost(kPageSize));
      stats.bytes_copied += kPageSize;
      machine_->pmem().Unref(e->frame);
      e->frame = *copy;
    }
    // Sole owner (again): write access can simply be restored.
    e->cow = false;
    d.pmap().Set(vpn, e->frame, e->prot);
    e->pmap_valid = true;
    clock.Advance(c.pt_update_ns);
    return Status::kOk;
  }

  if (e->frame == kInvalidFrame) {
    // Zero-fill: first touch materializes the page.
    machine_->trace().Emit(TraceCategory::kVm, "fault-zero-fill", d.id(), AddrOf(vpn));
    clock.Advance(c.page_fault_ns);
    stats.page_faults++;
    const Status st = MaterializeFrame(d, vpn, *e, e->zero_fill);
    if (!Ok(st)) {
      return st;
    }
    d.pmap().Set(vpn, e->frame, PmapProt(*e));
    e->pmap_valid = true;
    clock.Advance(c.pt_update_ns);
    return Status::kOk;
  }

  if (!e->pmap_valid) {
    // Lazily invalidated low-level entry (COW receiver's first access).
    clock.Advance(c.page_fault_ns);
    stats.page_faults++;
    d.pmap().Set(vpn, e->frame, PmapProt(*e));
    e->pmap_valid = true;
    clock.Advance(c.pt_update_ns);
    return Status::kOk;
  }

  // pmap entry exists and permits the access but the TLB said otherwise:
  // stale entry; nothing to do (caller invalidated it).
  return Status::kOk;
}

}  // namespace fbufs
