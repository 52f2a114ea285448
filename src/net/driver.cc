#include "src/net/driver.h"

#include <cstring>

namespace fbufs {

Status DriverProtocol::Push(Message m) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kNet);
  TraceSpan span(machine.trace(), TraceCategory::kNet, "driver-tx", vci_, m.length());
  machine.clock().Advance(machine.costs().driver_pdu_ns +
                          m.length() * machine.costs().driver_byte_ns);

  // Gather the PDU bytes straight from physical memory (DMA does the work;
  // no CPU data-touch cost, no permission path — the board masters the bus).
  last_tx_fbuf_ = nullptr;
  std::vector<std::uint8_t> payload(m.length());
  std::uint64_t pos = 0;
  Status status = Status::kOk;
  m.ForEachExtent([&](const Extent& e) {
    if (!Ok(status)) {
      return;
    }
    if (e.fb != nullptr) {
      last_tx_fbuf_ = e.fb;  // ends on the payload: headers precede it
    }
    if (e.fb == nullptr) {
      std::memset(payload.data() + pos, 0, e.len);
      pos += e.len;
      return;
    }
    Domain* orig = machine.domain(e.fb->originator);
    std::uint64_t done = 0;
    while (done < e.len) {
      const VirtAddr a = e.addr + done;
      const std::uint64_t in_page = std::min(e.len - done, kPageSize - PageOffset(a));
      const FrameId frame = orig != nullptr ? orig->DebugFrame(PageOf(a)) : kInvalidFrame;
      if (frame == kInvalidFrame) {
        status = Status::kNotMapped;
        return;
      }
      std::memcpy(payload.data() + pos, machine.pmem().Data(frame) + PageOffset(a), in_page);
      pos += in_page;
      done += in_page;
    }
  });
  if (!Ok(status)) {
    return status;
  }
  pdus_sent_++;
  if (on_transmit_) {
    on_transmit_(std::move(payload), vci_);
  }
  return Status::kOk;
}

Status DriverProtocol::DeliverPdu(const std::vector<std::uint8_t>& payload, std::uint32_t vci,
                                  bool volatile_fbufs) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kNet);
  TraceSpan span(machine.trace(), TraceCategory::kNet, "driver-rx", vci, payload.size());
  machine.clock().Advance(machine.costs().driver_pdu_ns +
                          payload.size() * machine.costs().driver_byte_ns);

  // The adapter picked cached-per-path or uncached reassembly buffering when
  // the first cell's VCI was seen. DMA overwrites the whole buffer, so no
  // security clearing is needed even for a fresh one.
  const PathId path = adapter_->PathForVci(vci);
  Fbuf* fb = nullptr;
  Status st = stack_->fsys()->Allocate(*domain(), path, payload.size(), volatile_fbufs, &fb,
                                       /*clear=*/false);
  if (!Ok(st)) {
    return st;
  }
  // Scatter the payload into the fbuf frames (again DMA: no CPU cost).
  std::uint64_t pos = 0;
  while (pos < payload.size()) {
    const VirtAddr a = fb->base + pos;
    const std::uint64_t in_page = std::min<std::uint64_t>(payload.size() - pos,
                                                          kPageSize - PageOffset(a));
    const FrameId frame = domain()->DebugFrame(PageOf(a));
    if (frame == kInvalidFrame) {
      stack_->fsys()->Free(fb, *domain());
      return Status::kNotMapped;
    }
    std::memcpy(machine.pmem().Data(frame) + PageOffset(a), payload.data() + pos, in_page);
    pos += in_page;
  }
  pdus_received_++;
  last_rx_fbuf_ = fb;
  st = SendUp(Message::Leaf(fb, 0, payload.size()));
  const Status free_st = stack_->fsys()->Free(fb, *domain());
  return Ok(st) ? free_st : st;
}

}  // namespace fbufs
