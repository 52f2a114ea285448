#include "src/baseline/cow_transfer.h"

namespace fbufs {

Status CowTransfer::Alloc(Domain& originator, std::uint64_t bytes, BufferRef* ref) {
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
    return st;
  }
  ref->sender_addr = *va;
  ref->bytes = bytes;
  ref->pages = pages;
  return Status::kOk;
}

Status CowTransfer::Send(BufferRef& ref, Domain& from, Domain& to) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  // The receiver gets a fresh address range each message (Mach receives into
  // newly allocated out-of-line memory). Range reservation is per message,
  // not per page.
  auto va = to.aspace().Allocate(ref.pages);
  if (!va.has_value()) {
    return Status::kNoVirtualSpace;
  }
  machine_->clock().Advance(machine_->costs().va_alloc_ns);
  machine_->stats().va_allocs++;
  const Status st = machine_->vm().ShareCow(from, ref.sender_addr, to, *va, ref.pages);
  if (!Ok(st)) {
    return st;
  }
  ref.receiver_addr = *va;
  return Status::kOk;
}

Status CowTransfer::ReceiverFree(BufferRef& ref, Domain& receiver) {
  LayerScope layer(machine_->attribution(), CostDomain::kBaseline);
  // Bulk deallocate: per-page pt removal + TLB consistency.
  const Status st =
      machine_->vm().Unmap(receiver, ref.receiver_addr, ref.pages, ChargeMode::kStreamlined);
  if (!Ok(st)) {
    return st;
  }
  receiver.aspace().Free(ref.receiver_addr, ref.pages);
  ref.receiver_addr = 0;
  return Status::kOk;
}

Status CowTransfer::SenderFree(BufferRef& ref, Domain& sender) {
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
