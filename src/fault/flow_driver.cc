#include "src/fault/flow_driver.h"

#include <algorithm>

namespace fbufs {

FlowDriver::FlowDriver(FbufSystem* fsys, EventLoop* loop, Domain* sender,
                       PathId data, Transport* transport, FlowBackoff backoff)
    : fsys_(fsys),
      loop_(loop),
      sender_(sender),
      data_(data),
      transport_(transport),
      backoff_(backoff) {}

void FlowDriver::Start(int messages, std::uint64_t bytes) {
  target_ = messages;
  bytes_ = bytes;
  loop_->Schedule(loop_->Now(), "produce", [this] { Produce(); });
}

void FlowDriver::Produce() {
  Machine& machine = fsys_->machine();
  while (accepted_ < target_) {
    if (!sender_->alive()) {
      return;  // terminated mid-campaign: the flow ends, not fails
    }
    Fbuf* fb = nullptr;
    Status st = fsys_->Allocate(*sender_, data_, bytes_, /*want_volatile=*/true, &fb);
    if (Ok(st)) {
      st = sender_->TouchRange(fb->base, bytes_, Access::kWrite);
      if (Ok(st)) {
        st = transport_->Push(Message::Whole(fb));
      }
      // The producer's reference always drops, push or no push.
      const Status free_st = fsys_->Free(fb, *sender_);
      if (Ok(st) && !Ok(free_st)) {
        st = free_st;
      }
    }
    if (Ok(st)) {
      accepted_++;
      if (queue_wait_ != nullptr) {
        const SimTime now = machine.clock().Now();
        queue_wait_->push_back(waiting_ && now >= wait_start_ ? now - wait_start_ : 0);
        waiting_ = false;
      }
      backoff_.Progress(loop_->Now());
      continue;
    }
    if (!IsBackpressure(st)) {
      failed_ = true;  // hard error: retrying cannot help
      return;
    }
    if (queue_wait_ != nullptr && !waiting_) {
      waiting_ = true;
      wait_start_ = machine.clock().Now();
    }
    const auto delay = backoff_.Park(loop_->Now());
    if (!delay.has_value()) {
      return;  // watchdog: no progress inside the horizon — give up
    }
    parks_++;
    loop_->Schedule(std::max(loop_->Now(), machine.clock().Now()) + *delay,
                    "produce", [this] { Produce(); });
    return;
  }
}

}  // namespace fbufs
