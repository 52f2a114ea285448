#include "src/proto/protocol.h"

#include <cassert>
#include <vector>

#include "src/obs/lifecycle.h"
#include "src/ring/ring_hub.h"

namespace fbufs {

Status Protocol::SendDown(const Message& m) {
  assert(below_ != nullptr);
  return stack_->Deliver(m, this, below_, /*down=*/true);
}

Status Protocol::SendUp(const Message& m) {
  assert(above_ != nullptr);
  return stack_->Deliver(m, this, above_, /*down=*/false);
}

Status Protocol::SendUpTo(Protocol* client, const Message& m) {
  assert(client != nullptr);
  return stack_->Deliver(m, this, client, /*down=*/false);
}

Status ProtocolStack::Deliver(const Message& m, Protocol* from, Protocol* to, bool down) {
  Domain& src = *from->domain();
  Domain& dst = *to->domain();
  if (src.id() == dst.id()) {
    return down ? to->Push(m) : to->Pop(m);
  }

  if (rings_ != nullptr) {
    TransferRing* ring = rings_->RingFor(src.id(), dst.id());
    if (ring != nullptr) {
      return DeliverRinged(m, to, down, src, dst, *ring);
    }
  }

  // Proxy edge: a cross-domain invocation carrying the aggregate. The
  // crossing span encloses the transfers, so their VM map/fault spans nest
  // inside it on the exported timeline.
  TraceSpan span(machine_->trace(), TraceCategory::kIpc, "crossing", src.id(), dst.id());
  LayerScope layer(machine_->attribution(), CostDomain::kProto);
  const std::vector<Fbuf*> fbufs = m.Fbufs();
  if (!config_.integrated) {
    // Steps 2a/3c of the base mechanism: build the fbuf list in the sender,
    // rebuild the aggregate in the receiver.
    machine_->clock().Advance(2 * fbufs.size() * machine_->costs().fbuf_list_marshal_ns);
  }
  const bool lazy = !to->touches_body();
  for (Fbuf* fb : fbufs) {
    const Status st = fsys_->Transfer(fb, src, dst, lazy);
    if (!Ok(st)) {
      return st;
    }
  }
  if (domain_count_ > 2) {
    // §4: a third domain on the path thrashes TLB and instruction cache
    // (no shared libraries: protocol-infrastructure text is duplicated).
    machine_->clock().Advance((domain_count_ - 2) * machine_->costs().cache_pressure_ns);
  }
  const Status st = rpc_->Invoke(src, dst, [&] { return down ? to->Push(m) : to->Pop(m); });
  // Synchronous delivery complete: the receiving domain's references die
  // unless the callee retained explicitly.
  const Status free_st = FreeMessage(m, dst);
  return Ok(st) ? free_st : st;
}

Status ProtocolStack::DeliverRinged(const Message& m, Protocol* to, bool down,
                                    Domain& src, Domain& dst,
                                    TransferRing& ring) {
  const std::vector<Fbuf*> fbufs = m.Fbufs();
  const AttrPathId path =
      fbufs.empty() ? kAttrNoPath : static_cast<AttrPathId>(fbufs.front()->path);
  {
    // Producer-side half of the proxy edge: marshal (if non-integrated) and
    // the eager reference transfers happen at submit, exactly as on the sync
    // path, so the receiver holds its references before the descriptor is
    // visible in the ring — the fbuf cannot die under the queued handoff.
    LayerScope layer(machine_->attribution(), CostDomain::kProto);
    if (!config_.integrated) {
      machine_->clock().Advance(2 * fbufs.size() *
                                machine_->costs().fbuf_list_marshal_ns);
    }
    const bool lazy = !to->touches_body();
    for (Fbuf* fb : fbufs) {
      const Status st = fsys_->Transfer(fb, src, dst, lazy);
      if (!Ok(st)) {
        return st;
      }
    }
    if (domain_count_ > 2) {
      machine_->clock().Advance((domain_count_ - 2) *
                                machine_->costs().cache_pressure_ns);
    }
  }
  Domain* dstp = &dst;
  const Status sub = ring.SubmitHandoff(
      path,
      [this, m, to, down, dstp] {
        LayerScope layer(machine_->attribution(), CostDomain::kProto);
        if (machine_->lifecycle() != nullptr) {
          for (Fbuf* fb : m.Fbufs()) {
            machine_->lifecycle()->Hop(fb->id, HopKind::kRingDeliver,
                                       dstp->id(), "ring");
          }
        }
        const Status st = down ? to->Push(m) : to->Pop(m);
        const Status free_st = FreeMessage(m, *dstp);
        return Ok(st) ? free_st : st;
      },
      [this, m, dstp] { FreeMessage(m, *dstp); },
      [this](Status st, SimTime) {
        if (!Ok(st)) {
          ring_errors_++;
        }
      });
  if (!Ok(sub)) {
    // Full SQ: release the references granted above and surface the
    // retryable status (FlowBackoff::IsBackpressure) to the caller.
    FreeMessage(m, dst);
    return sub;
  }
  if (machine_->lifecycle() != nullptr) {
    for (Fbuf* fb : fbufs) {
      machine_->lifecycle()->Hop(fb->id, HopKind::kRingSubmit, src.id(), "ring",
                                 dst.id());
    }
  }
  return Status::kOk;
}

Status ProtocolStack::FreeMessage(const Message& m, Domain& d) {
  for (Fbuf* fb : m.Fbufs()) {
    const Status st = fsys_->Free(fb, d);
    if (!Ok(st)) {
      return st;
    }
  }
  return Status::kOk;
}

Status ProtocolStack::RetainMessage(const Message& m, Domain& d) {
  for (Fbuf* fb : m.Fbufs()) {
    const Status st = fsys_->AddRef(fb, d);
    if (!Ok(st)) {
      return st;
    }
  }
  return Status::kOk;
}

}  // namespace fbufs
