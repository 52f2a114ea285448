#include "src/proto/ip.h"

#include <cstring>

namespace fbufs {

namespace {
std::uint16_t HeaderChecksum(const IpHeader& h) {
  IpHeader copy = h;
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

Status IpProtocol::SendFragment(const Message& body, std::uint32_t id, std::uint64_t offset,
                                std::uint64_t adu_length) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  PathScope pscope(machine.attribution(), hdr_path_);
  TraceSpan span(machine.trace(), TraceCategory::kProto, "ip-fragment", id, offset);
  machine.clock().Advance(machine.costs().proto_pdu_ns);

  Fbuf* hdr_fb = nullptr;
  Status st = stack_->fsys()->Allocate(*domain(), hdr_path_, kHeaderBytes,
                                       /*want_volatile=*/true, &hdr_fb);
  if (!Ok(st)) {
    return st;
  }
  IpHeader h;
  h.total_length = static_cast<std::uint32_t>(kHeaderBytes + body.length());
  h.id = id;
  h.frag_offset = static_cast<std::uint32_t>(offset);
  h.adu_length = static_cast<std::uint32_t>(adu_length);
  h.checksum = HeaderChecksum(h);
  machine.clock().Advance(machine.costs().ChecksumCost(kHeaderBytes));
  st = domain()->WriteBytes(hdr_fb->base, &h, sizeof(h));
  if (!Ok(st)) {
    stack_->fsys()->Free(hdr_fb, *domain());
    return st;
  }
  fragments_sent_++;
  const Message pdu = Message::Concat(Message::Whole(hdr_fb), body);
  st = SendDown(pdu);
  const Status free_st = stack_->fsys()->Free(hdr_fb, *domain());
  return Ok(st) ? free_st : st;
}

Status IpProtocol::Push(Message m) {
  const std::uint32_t id = next_id_++;
  const std::uint64_t total = m.length();
  if (total <= pdu_size_) {
    return SendFragment(m, id, 0, total);
  }
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  TraceSpan span(machine.trace(), TraceCategory::kProto, "ip-fragmentation", id, total);
  // Fragmentation does not disturb the original buffers: each fragment is an
  // offset/length view. The paper observes a fixed overhead once a message
  // needs fragmenting at all (the Figure 4 "anomaly").
  stack_->machine()->clock().Advance(stack_->machine()->costs().frag_fixed_ns);
  for (std::uint64_t off = 0; off < total; off += pdu_size_) {
    const std::uint64_t len = std::min(pdu_size_, total - off);
    const Status st = SendFragment(m.Slice(off, len), id, off, total);
    if (!Ok(st)) {
      return st;
    }
  }
  return Status::kOk;
}

Status IpProtocol::Pop(Message m) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  machine.clock().Advance(machine.costs().proto_pdu_ns);

  IpHeader h;
  Status st = m.CopyOut(*domain(), 0, &h, sizeof(h));
  if (!Ok(st)) {
    return st;
  }
  machine.clock().Advance(machine.costs().ChecksumCost(kHeaderBytes));
  if (HeaderChecksum(h) != h.checksum) {
    return Status::kInvalidArgument;
  }
  const std::uint64_t body_len = h.total_length - kHeaderBytes;
  const Message body = m.Slice(kHeaderBytes, body_len);
  if (body.length() < body_len) {
    return Status::kTruncated;
  }
  if (h.frag_offset == 0 && body_len == h.adu_length) {
    return SendUp(body);  // unfragmented datagram
  }

  // Reassembly. The delivering caller owns this fragment instance's
  // references, so retain our own for the time the fragment sits here.
  Reassembly& r = reassembly_[h.id];
  if (r.fragments.count(h.frag_offset) != 0) {
    return Status::kOk;  // duplicate fragment: drop
  }
  st = stack_->RetainMessage(body, *domain());
  if (!Ok(st)) {
    return st;
  }
  r.fragments[h.frag_offset] = body;
  r.received += body_len;
  r.total = h.adu_length;
  if (r.received < r.total) {
    return Status::kOk;
  }

  Message adu;
  for (const auto& [off, frag] : r.fragments) {
    adu = Message::Concat(adu, frag);
  }
  datagrams_reassembled_++;
  st = SendUp(adu);
  // Release the retained fragment references.
  for (const auto& [off, frag] : r.fragments) {
    const Status fst = stack_->FreeMessage(frag, *domain());
    if (!Ok(fst) && Ok(st)) {
      st = fst;
    }
  }
  reassembly_.erase(h.id);
  return st;
}

}  // namespace fbufs
