#include "src/baseline/copy_transfer.h"

#include <cstring>

namespace fbufs {

Status CopyTransfer::Alloc(Domain& originator, std::uint64_t bytes, BufferRef* ref) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  const std::uint64_t pages = PagesFor(bytes);
  auto va = originator.aspace().Allocate(pages);
  if (!va.has_value()) {
    return Status::kNoVirtualSpace;
  }
  machine_->clock().Advance(machine_->costs().va_alloc_ns);
  machine_->stats().va_allocs++;
  const Status st = machine_->vm().MapAnonymous(originator, *va, pages, Prot::kReadWrite,
                                                /*eager=*/true, /*clear=*/true,
                                                ChargeMode::kGeneral);
  if (!Ok(st)) {
    originator.aspace().Free(*va, pages);
    return st;
  }
  ref->sender_addr = *va;
  ref->bytes = bytes;
  ref->pages = pages;
  return Status::kOk;
}

Status CopyTransfer::ReceiverBuffer(Domain& to, std::uint64_t pages, VirtAddr* addr) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  auto it = pool_.find({to.id(), pages});
  if (it != pool_.end()) {
    *addr = it->second;
    return Status::kOk;
  }
  auto va = to.aspace().Allocate(pages);
  if (!va.has_value()) {
    return Status::kNoVirtualSpace;
  }
  machine_->clock().Advance(machine_->costs().va_alloc_ns);
  machine_->stats().va_allocs++;
  const Status st = machine_->vm().MapAnonymous(to, *va, pages, Prot::kReadWrite,
                                                /*eager=*/true, /*clear=*/true,
                                                ChargeMode::kGeneral);
  if (!Ok(st)) {
    to.aspace().Free(*va, pages);
    return st;
  }
  pool_[{to.id(), pages}] = *va;
  *addr = *va;
  return Status::kOk;
}

Status CopyTransfer::Send(BufferRef& ref, Domain& from, Domain& to) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  VirtAddr dst = 0;
  Status st = ReceiverBuffer(to, ref.pages, &dst);
  if (!Ok(st)) {
    return st;
  }
  // Kernel copy, page by page, through real frames.
  for (std::uint64_t i = 0; i < ref.pages; ++i) {
    const FrameId sf = from.DebugFrame(PageOf(ref.sender_addr) + i);
    const FrameId df = to.DebugFrame(PageOf(dst) + i);
    if (sf == kInvalidFrame || df == kInvalidFrame) {
      return Status::kNotMapped;
    }
    std::memcpy(machine_->pmem().Data(df), machine_->pmem().Data(sf), kPageSize);
  }
  machine_->clock().Advance(machine_->costs().CopyCost(ref.bytes));
  machine_->stats().bytes_copied += ref.bytes;
  ref.receiver_addr = dst;
  return Status::kOk;
}

Status CopyTransfer::ReceiverFree(BufferRef& ref, Domain& receiver) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  // The landing buffer is pooled; nothing to undo.
  (void)ref;
  (void)receiver;
  return Status::kOk;
}

Status CopyTransfer::SenderFree(BufferRef& ref, Domain& sender) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  machine_->clock().Advance(machine_->costs().va_free_ns);
  const Status st =
      machine_->vm().Unmap(sender, ref.sender_addr, ref.pages, ChargeMode::kGeneral);
  if (!Ok(st)) {
    return st;
  }
  sender.aspace().Free(ref.sender_addr, ref.pages);
  return Status::kOk;
}

}  // namespace fbufs
