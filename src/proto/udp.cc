#include "src/proto/udp.h"

#include <cstring>

namespace fbufs {

namespace {
std::uint16_t HeaderChecksum(const UdpHeader& h) {
  // One's-complement sum over the header with the checksum field zeroed.
  UdpHeader copy = h;
  copy.checksum = 0;
  const auto* words = reinterpret_cast<const std::uint16_t*>(&copy);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < sizeof(copy) / 2; ++i) {
    sum += words[i];
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}
}  // namespace

Status UdpProtocol::Send(const Message& m, std::uint16_t src_port, std::uint16_t dst_port) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  PathScope pscope(machine.attribution(), hdr_path_);
  TraceSpan span(machine.trace(), TraceCategory::kProto, "udp-send", dst_port, m.length());
  machine.clock().Advance(machine.costs().proto_pdu_ns);

  Fbuf* hdr_fb = nullptr;
  Status st = stack_->fsys()->Allocate(*domain(), hdr_path_, kHeaderBytes,
                                       /*want_volatile=*/true, &hdr_fb);
  if (!Ok(st)) {
    return st;
  }
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.length = static_cast<std::uint32_t>(kHeaderBytes + m.length());
  h.checksum = HeaderChecksum(h);
  machine.clock().Advance(machine.costs().ChecksumCost(kHeaderBytes));
  st = domain()->WriteBytes(hdr_fb->base, &h, sizeof(h));
  if (!Ok(st)) {
    stack_->fsys()->Free(hdr_fb, *domain());
    return st;
  }

  const Message framed = Message::Concat(Message::Whole(hdr_fb), m);
  st = SendDown(framed);
  // The header fbuf was created here; release our reference now that the
  // synchronous downstream call is over.
  const Status free_st = stack_->fsys()->Free(hdr_fb, *domain());
  return Ok(st) ? free_st : st;
}

Status UdpProtocol::Pop(Message m) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  machine.clock().Advance(machine.costs().proto_pdu_ns);

  UdpHeader h;
  Status st = m.CopyOut(*domain(), 0, &h, sizeof(h));
  if (!Ok(st)) {
    dropped_++;
    return st;
  }
  machine.clock().Advance(machine.costs().ChecksumCost(kHeaderBytes));
  if (HeaderChecksum(h) != h.checksum) {
    dropped_++;
    return Status::kInvalidArgument;
  }
  auto it = bindings_.find(h.dst_port);
  if (it == bindings_.end()) {
    dropped_++;
    return Status::kNotFound;
  }
  const std::uint64_t body_len = h.length - kHeaderBytes;
  const Message body = m.Slice(kHeaderBytes, body_len);
  if (body.length() < body_len) {
    dropped_++;
    return Status::kTruncated;
  }
  delivered_++;
  return SendUpTo(it->second, body);
}

}  // namespace fbufs
