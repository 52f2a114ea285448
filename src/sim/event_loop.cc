#include "src/sim/event_loop.h"

namespace fbufs {

EventLoop::EventId EventLoop::Schedule(SimTime t, std::string label, Handler fn) {
  assert(t >= now_ && "EventLoop::Schedule: event behind the dispatch floor");
  const EventId id = next_seq_++;
  Event e;
  e.time = t;
  e.seq = id;
  e.label = std::move(label);
  e.fn = std::move(fn);
  queue_.push(std::move(e));
  live_.insert(id);
  return id;
}

bool EventLoop::Cancel(EventId id) {
  if (live_.erase(id) == 0) {
    return false;  // never scheduled, already dispatched, or already cancelled
  }
  cancelled_.insert(id);
  cancelled_total_++;
  return true;
}

void EventLoop::PurgeCancelledTop() {
  while (!queue_.empty() && cancelled_.count(queue_.top().seq) != 0) {
    cancelled_.erase(queue_.top().seq);
    queue_.pop();
  }
}

bool EventLoop::RunOne() {
  PurgeCancelledTop();
  if (queue_.empty()) {
    return false;
  }
  Event e = queue_.top();
  queue_.pop();
  live_.erase(e.seq);
  now_ = e.time;
  HashDispatch(e);
  dispatched_++;
  e.fn();
  return true;
}

std::uint64_t EventLoop::Run() {
  std::uint64_t n = 0;
  while (RunOne()) {
    n++;
  }
  return n;
}

std::uint64_t EventLoop::RunUntil(SimTime t) {
  std::uint64_t n = 0;
  for (;;) {
    PurgeCancelledTop();
    if (queue_.empty() || queue_.top().time > t || !RunOne()) {
      break;
    }
    n++;
  }
  return n;
}

void EventLoop::HashDispatch(const Event& e) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  auto mix = [this](const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      trace_hash_ ^= p[i];
      trace_hash_ *= kPrime;
    }
  };
  mix(&e.time, sizeof(e.time));
  mix(&e.seq, sizeof(e.seq));
  mix(e.label.data(), e.label.size());
  if (record_trace_) {
    trace_.push_back(TraceEntry{e.time, e.seq, e.label});
  }
}

}  // namespace fbufs
