#include "src/vm/domain.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/vm/machine.h"

namespace fbufs {

Domain::Domain(Machine* machine, DomainId id, std::string name, bool trusted)
    : machine_(machine),
      id_(id),
      name_(std::move(name)),
      trusted_(trusted),
      pmap_(&machine->stats()),
      tlb_(machine->tlb_entries(), &machine->clock(), &machine->costs(), &machine->stats()) {}

Status Domain::Translate(Vpn vpn, Access access, FrameId* frame) {
  // TLB refills and fault handling are VM-layer work no matter who touched
  // the address.
  LayerScope layer(machine_->attribution(), CostDomain::kVm);
  // At most one fault retry: a successful fault installs a pmap entry the
  // refill can use; a second failure is a genuine violation.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const PmapEntry* pe = tlb_.Translate(vpn, pmap_);
    if (pe != nullptr && Allows(pe->prot, access)) {
      *frame = pe->frame;
      return Status::kOk;
    }
    if (pe != nullptr) {
      // Stale or insufficient rights in the TLB; drop before the fault path.
      tlb_.InvalidatePage(vpn);
    }
    const Status st = machine_->vm().HandleFault(*this, vpn, access);
    if (!Ok(st)) {
      return st;
    }
  }
  return Status::kProtection;
}

Status Domain::ReadBytes(VirtAddr addr, void* dst, std::size_t len) {
  Attribution& attr = machine_->attribution();
  // Data touching is application work unless an enclosing layer (msg, proto)
  // already claimed it.
  LayerScope layer(attr, attr.CurrentLayer() == CostDomain::kOther ? CostDomain::kApp
                                                                   : attr.CurrentLayer());
  auto* out = static_cast<std::uint8_t*>(dst);
  while (len > 0) {
    const Vpn vpn = PageOf(addr);
    const std::uint64_t off = PageOffset(addr);
    const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(len, kPageSize - off));
    FrameId frame = kInvalidFrame;
    const Status st = Translate(vpn, Access::kRead, &frame);
    if (!Ok(st)) {
      return st;
    }
    std::memcpy(out, machine_->pmem().Data(frame) + off, chunk);
    machine_->clock().Advance(((chunk + 3) / 4) * machine_->costs().mem_word_ns);
    out += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::kOk;
}

Status Domain::WriteBytes(VirtAddr addr, const void* src, std::size_t len) {
  Attribution& attr = machine_->attribution();
  LayerScope layer(attr, attr.CurrentLayer() == CostDomain::kOther ? CostDomain::kApp
                                                                   : attr.CurrentLayer());
  const auto* in = static_cast<const std::uint8_t*>(src);
  while (len > 0) {
    const Vpn vpn = PageOf(addr);
    const std::uint64_t off = PageOffset(addr);
    const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(len, kPageSize - off));
    FrameId frame = kInvalidFrame;
    const Status st = Translate(vpn, Access::kWrite, &frame);
    if (!Ok(st)) {
      return st;
    }
    std::memcpy(machine_->pmem().Data(frame) + off, in, chunk);
    machine_->clock().Advance(((chunk + 3) / 4) * machine_->costs().mem_word_ns);
    in += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::kOk;
}

Status Domain::ReadWord(VirtAddr addr, std::uint32_t* out) {
  return ReadBytes(addr, out, sizeof(*out));
}

Status Domain::WriteWord(VirtAddr addr, std::uint32_t value) {
  return WriteBytes(addr, &value, sizeof(value));
}

Status Domain::TouchRange(VirtAddr addr, std::size_t len, Access access) {
  const VirtAddr end = addr + len;
  for (VirtAddr a = addr; a < end; a = (PageOf(a) + 1) << kPageShift) {
    if (access == Access::kRead) {
      std::uint32_t scratch = 0;
      const Status st = ReadWord(a, &scratch);
      if (!Ok(st)) {
        return st;
      }
    } else {
      const Status st = WriteWord(a, 0xfb0fb0f5u);
      if (!Ok(st)) {
        return st;
      }
    }
  }
  return Status::kOk;
}

FrameId Domain::DebugFrame(Vpn vpn) const {
  const VmEntry* e = FindEntry(vpn);
  return e == nullptr ? kInvalidFrame : e->frame;
}

}  // namespace fbufs
