#include "src/proto/transport.h"

#include <utility>

#include "src/obs/lifecycle.h"

namespace fbufs {

Transport::Transport(std::string name, Domain* domain, ProtocolStack* stack,
                     PathId hdr_path, std::unique_ptr<CongestionPolicy> policy,
                     bool extended_header)
    : Protocol(name, domain, stack),
      hdr_path_(hdr_path),
      policy_(std::move(policy)),
      extended_(extended_header),
      span_send_(name + "-send"),
      span_ack_(name + "-ack"),
      span_recv_(name + "-recv"),
      rtt_metric_(name + ".rtt_ns") {}

Status Transport::TransmitData(std::uint32_t seq, const Message& m) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  PathScope pscope(machine.attribution(), hdr_path_);
  // The send span encloses fragmentation (IP) and adapter work below.
  TraceSpan span(machine.trace(), TraceCategory::kProto, span_send_.c_str(),
                 seq, m.length());
  send_time_[seq] = machine.clock().Now();
  if (lat_ != nullptr && first_tx_.count(seq) == 0) {
    first_tx_[seq] = send_time_[seq];
  }
  machine.clock().Advance(machine.costs().proto_pdu_ns);
  Fbuf* hdr_fb = nullptr;
  Status st = stack_->fsys()->Allocate(*domain(), hdr_path_, header_bytes(),
                                       /*want_volatile=*/true, &hdr_fb);
  if (!Ok(st)) {
    return st;
  }
  if (extended_) {
    TransportHeader h;
    h.type = SwpHeader::kData;
    h.seq = seq;
    h.len = m.length();
    st = domain()->WriteBytes(hdr_fb->base, &h, sizeof(h));
  } else {
    SwpHeader h;
    h.type = SwpHeader::kData;
    h.seq = seq;
    h.len = m.length();
    st = domain()->WriteBytes(hdr_fb->base, &h, sizeof(h));
  }
  if (Ok(st)) {
    st = SendDown(Message::Concat(Message::Whole(hdr_fb), m));
  }
  const Status free_st = stack_->fsys()->Free(hdr_fb, *domain());
  return Ok(st) ? free_st : st;
}

Status Transport::TransmitAck() {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  PathScope pscope(machine.attribution(), hdr_path_);
  TraceSpan span(machine.trace(), TraceCategory::kProto, span_ack_.c_str(),
                 recv_next_, 0);
  machine.clock().Advance(machine.costs().proto_pdu_ns);
  Fbuf* hdr_fb = nullptr;
  Status st = stack_->fsys()->Allocate(*domain(), hdr_path_, header_bytes(),
                                       /*want_volatile=*/true, &hdr_fb);
  if (!Ok(st)) {
    return st;
  }
  if (extended_) {
    TransportHeader h;
    h.type = SwpHeader::kAck;
    h.seq = recv_next_;
    h.len = 0;
    // The grant rides on every ack: the receiver's current view of how many
    // PDUs this flow may keep in flight, sized to its fbuf headroom.
    h.credit = credit_source_ ? credit_source_()
                              : static_cast<std::uint32_t>(-1);
    h.flags = 0;
    if (pending_ece_) {
      h.flags |= TransportHeader::kFlagEce;
      pending_ece_ = false;
      ece_echoed_++;
    }
    st = domain()->WriteBytes(hdr_fb->base, &h, sizeof(h));
  } else {
    SwpHeader h;
    h.type = SwpHeader::kAck;
    h.seq = recv_next_;
    h.len = 0;
    st = domain()->WriteBytes(hdr_fb->base, &h, sizeof(h));
  }
  if (Ok(st)) {
    acks_sent_++;
    st = SendDown(Message::Whole(hdr_fb));
  }
  const Status free_st = stack_->fsys()->Free(hdr_fb, *domain());
  return Ok(st) ? free_st : st;
}

Status Transport::Push(Message m) {
  if (!policy_->CanSend(outstanding_.size())) {
    return policy_->RefusalStatus();
  }
  // Copy semantics at work: retain a reference so the data stays intact and
  // accessible for retransmission, no matter what the producer does next
  // with its own references.
  Status st = stack_->RetainMessage(m, *domain());
  if (!Ok(st)) {
    return st;
  }
  const std::uint32_t seq = next_seq_++;
  outstanding_[seq] = m;
  Machine& machine = *stack_->machine();
  if (ledger_ != nullptr) {
    ledger_->Pin(seq, m.Fbufs(), machine.clock().Now());
  }
  if (machine.lifecycle() != nullptr) {
    // The retained reference is the paper's retransmit pin — record it even
    // when no ledger audits this flow.
    for (Fbuf* fb : m.Fbufs()) {
      machine.lifecycle()->Hop(fb->id, HopKind::kPin, domain()->id(), "proto",
                               seq);
    }
  }
  if (lat_ != nullptr) {
    pushed_time_[seq] = machine.clock().Now();
  }
  st = TransmitData(seq, m);
  if (Ok(st)) {
    ArmTimer();
  }
  return st;
}

void Transport::ArmTimer() {
  if (loop_ == nullptr || timer_pending_ || outstanding_.empty()) {
    return;
  }
  timer_pending_ = true;
  // The timeout matures RTO nanoseconds of *sender* time from now, and the
  // interrupt wakes the sender's host no earlier than that deadline.
  Machine& machine = *stack_->machine();
  timer_id_ = ScheduleOn(
      *loop_, machine, 0, machine.clock().Now() + rto_, "swp-rto", [this] {
        timer_pending_ = false;
        if (outstanding_.empty()) {
          return;  // defensive: a full ack should have cancelled this event
        }
        timer_fires_++;
        Tick();
        ArmTimer();
      });
}

Status Transport::Tick() {
  if (!outstanding_.empty()) {
    // One loss signal per timer fire, however many frames go back out.
    policy_->OnTimeout(next_seq_);
  }
  // A retransmitted frame can be acknowledged synchronously (the ack rides
  // back inside TransmitData's call chain) and erase outstanding_ entries,
  // so iterate over a snapshot of the sequence numbers.
  std::vector<std::uint32_t> seqs;
  seqs.reserve(outstanding_.size());
  for (const auto& [seq, m] : outstanding_) {
    seqs.push_back(seq);
  }
  for (const std::uint32_t seq : seqs) {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) {
      continue;  // acked by an earlier retransmission this tick
    }
    retransmissions_++;
    const Status st = TransmitData(seq, it->second);
    if (!Ok(st)) {
      return st;
    }
  }
  return Status::kOk;
}

Status Transport::DeliverReady() {
  while (true) {
    auto it = stash_.find(recv_next_);
    if (it == stash_.end()) {
      return Status::kOk;
    }
    Message ready = it->second;
    stash_.erase(it);
    recv_next_++;
    delivered_in_order_++;
    const Status st = SendUp(ready);
    // Release the references taken when the frame was stashed.
    const Status free_st = stack_->FreeMessage(ready, *domain());
    if (!Ok(st)) {
      return st;
    }
    if (!Ok(free_st)) {
      return free_st;
    }
  }
}

Status Transport::Pop(Message m) {
  Machine& machine = *stack_->machine();
  LayerScope layer(machine.attribution(), CostDomain::kProto);
  PathScope pscope(machine.attribution(), hdr_path_);
  TraceSpan span(machine.trace(), TraceCategory::kProto, span_recv_.c_str(),
                 0, m.length());
  machine.clock().Advance(machine.costs().proto_pdu_ns);
  SwpHeader h;
  Status st = m.CopyOut(*domain(), 0, &h, sizeof(h));
  if (!Ok(st)) {
    return st;
  }

  if (h.type == SwpHeader::kAck) {
    std::uint32_t credit = static_cast<std::uint32_t>(-1);
    bool ece = false;
    if (extended_) {
      TransportHeader xh;
      st = m.CopyOut(*domain(), 0, &xh, sizeof(xh));
      if (!Ok(st)) {
        return st;
      }
      credit = xh.credit;
      ece = (xh.flags & TransportHeader::kFlagEce) != 0;
    }
    // Cumulative: everything below h.seq is delivered; drop retentions.
    std::uint32_t newly_acked = 0;
    while (!outstanding_.empty() && outstanding_.begin()->first < h.seq) {
      const std::uint32_t acked = outstanding_.begin()->first;
      const SimTime now = machine.clock().Now();
      const auto sent = send_time_.find(acked);
      if (sent != send_time_.end()) {
        if (machine.metrics() != nullptr && now >= sent->second) {
          machine.metrics()->GetHistogram(rtt_metric_)
              ->Observe(now - sent->second);
        }
        if (lat_ != nullptr) {
          const SimTime last_tx = sent->second;
          if (now >= last_tx) {
            lat_->wire.push_back(now - last_tx);
          }
          const auto ftx = first_tx_.find(acked);
          if (ftx != first_tx_.end()) {
            if (last_tx >= ftx->second) {
              lat_->retransmit.push_back(last_tx - ftx->second);
            }
            first_tx_.erase(ftx);
          }
          const auto pushed = pushed_time_.find(acked);
          if (pushed != pushed_time_.end()) {
            if (now >= pushed->second) {
              lat_->pin_hold.push_back(now - pushed->second);
            }
            pushed_time_.erase(pushed);
          }
        }
        send_time_.erase(sent);
      }
      if (machine.lifecycle() != nullptr) {
        for (Fbuf* fb : outstanding_.begin()->second.Fbufs()) {
          machine.lifecycle()->Hop(fb->id, HopKind::kUnpin, domain()->id(),
                                   "proto", acked);
        }
      }
      const Status free_st = stack_->FreeMessage(outstanding_.begin()->second, *domain());
      if (!Ok(free_st)) {
        return free_st;
      }
      outstanding_.erase(outstanding_.begin());
      newly_acked++;
    }
    if (ledger_ != nullptr) {
      ledger_->ReleaseBelow(h.seq);
    }
    if (h.seq > send_base_) {
      send_base_ = h.seq;
    }
    if (extended_) {
      policy_->OnCreditGrant(credit);
    }
    // Duplicate acks (newly_acked == 0) still reach the policy: an ECN echo
    // on a re-ack must still shrink the AIMD window.
    policy_->OnAck(h.seq, newly_acked, ece, next_seq_);
    if (timer_pending_ && loop_ != nullptr &&
        (outstanding_.empty() || newly_acked > 0)) {
      // Full ack: nothing left to guard. Partial ack: the clock restarts
      // for the frames still in flight — keeping the original deadline
      // would fire a spurious go-back-all RTO every rto_ whenever the
      // window stays continuously occupied, acks or no acks.
      loop_->Cancel(timer_id_);
      timer_pending_ = false;
      ArmTimer();
    }
    return Status::kOk;
  }
  if (h.type != SwpHeader::kData) {
    return Status::kInvalidArgument;
  }

  const Message body = m.Slice(header_bytes(), h.len);
  if (body.length() < h.len) {
    return Status::kTruncated;
  }
  if (h.seq < recv_next_ || stash_.count(h.seq) != 0) {
    duplicates_dropped_++;
    return TransmitAck();  // re-ack so the sender stops retransmitting
  }
  if (h.seq == recv_next_) {
    recv_next_++;
    delivered_in_order_++;
    st = SendUp(body);
    if (!Ok(st)) {
      return st;
    }
    st = DeliverReady();
    if (!Ok(st)) {
      return st;
    }
  } else {
    // Out of order: retain and stash until the gap fills.
    st = stack_->RetainMessage(body, *domain());
    if (!Ok(st)) {
      return st;
    }
    stash_[h.seq] = body;
  }
  return TransmitAck();
}

Status Transport::Shutdown() {
  if (timer_pending_ && loop_ != nullptr) {
    loop_->Cancel(timer_id_);
    timer_pending_ = false;
  }
  Status st = Status::kOk;
  Machine& machine = *stack_->machine();
  for (auto& [seq, m] : outstanding_) {
    if (machine.lifecycle() != nullptr) {
      // Orderly close: the retained pins are released here, not by an ack.
      for (Fbuf* fb : m.Fbufs()) {
        machine.lifecycle()->Hop(fb->id, HopKind::kUnpin, domain()->id(),
                                 "proto", seq);
      }
    }
    const Status free_st = stack_->FreeMessage(m, *domain());
    if (Ok(st) && !Ok(free_st)) {
      st = free_st;
    }
  }
  outstanding_.clear();
  send_time_.clear();
  pushed_time_.clear();
  first_tx_.clear();
  for (auto& [seq, m] : stash_) {
    const Status free_st = stack_->FreeMessage(m, *domain());
    if (Ok(st) && !Ok(free_st)) {
      st = free_st;
    }
  }
  stash_.clear();
  if (ledger_ != nullptr) {
    ledger_->ReclaimAll();
  }
  aborted_ = true;
  return st;
}

void Transport::OnFlowAbort() {
  aborted_ = true;
  if (timer_pending_ && loop_ != nullptr) {
    loop_->Cancel(timer_id_);
    timer_pending_ = false;
  }
  // The §3.3 domain cleanup already dropped every reference this domain held
  // (fbufs were unmapped and unreffed when it died) — freeing here would
  // double-free. Forget the bookkeeping only. The lifecycle journeys of the
  // pinned fbufs were already closed (abort hops) by the §3.3 sweep, which
  // runs before this hook — recording unpins here would hit ended journeys.
  outstanding_.clear();
  send_time_.clear();
  pushed_time_.clear();
  first_tx_.clear();
  stash_.clear();
  if (ledger_ != nullptr) {
    ledger_->ReclaimAll();
  }
}

void Transport::InstallAbortOnTermination() {
  stack_->machine()->AddTerminationHook([this](Domain& d) {
    if (&d == domain()) {
      OnFlowAbort();
    }
  });
}

}  // namespace fbufs
