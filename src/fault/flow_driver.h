// FlowDriver: the producer that keeps one sender Transport's window full.
//
// Every transport-driving harness world runs this one loop: SwpWorld has one
// FlowDriver, IncastWorld one per flow. Each message is allocated on the
// flow's data path, written by the sender domain, and pushed into the
// transport; the producer's own reference always drops, push or no push.
// A backpressure refusal (window closed, credits spent, congestion, pool or
// quota exhausted) parks the producer on its FlowBackoff and retries from
// the event loop, and the backoff's stall watchdog gives up after its
// no-progress horizon. Any other error fails the producer. A sender domain
// that dies mid-run ends the flow without failing it.
#ifndef SRC_FAULT_FLOW_DRIVER_H_
#define SRC_FAULT_FLOW_DRIVER_H_

#include <cstdint>
#include <vector>

#include "src/fbuf/fbuf_system.h"
#include "src/pressure/backoff.h"
#include "src/proto/transport.h"
#include "src/sim/event_loop.h"

namespace fbufs {

class FlowDriver {
 public:
  FlowDriver(FbufSystem* fsys, EventLoop* loop, Domain* sender, PathId data,
             Transport* transport, FlowBackoff backoff);

  // Pending produce events hold |this|.
  FlowDriver(const FlowDriver&) = delete;
  FlowDriver& operator=(const FlowDriver&) = delete;

  // Keeps the window full until |messages| of |bytes| each were accepted.
  // Call once, then run the loop to quiescence.
  void Start(int messages, std::uint64_t bytes);

  // Stops the producer cleanly: its pending produce event exits without
  // pushing. Call before terminating the sender domain.
  void Stop() { target_ = accepted_; }

  // Appends each accepted message's admission wait to |out|: the time from
  // the first refusal to acceptance, or zero for a message accepted without
  // parking, so |out| gains one sample per accepted message. Call before
  // Start.
  void SampleQueueWait(std::vector<SimTime>* out) { queue_wait_ = out; }

  int accepted() const { return accepted_; }
  // Message size of the current Start (0 before it).
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t parks() const { return parks_; }
  // Watchdog verdict: the producer gave up without reaching its target.
  bool stalled() const { return backoff_.stalled; }
  // A non-backpressure error stopped the producer.
  bool failed() const { return failed_; }

 private:
  void Produce();

  FbufSystem* fsys_;
  EventLoop* loop_;
  Domain* sender_;
  PathId data_;
  Transport* transport_;
  FlowBackoff backoff_;
  std::vector<SimTime>* queue_wait_ = nullptr;
  int target_ = 0;
  std::uint64_t bytes_ = 0;
  int accepted_ = 0;
  std::uint64_t parks_ = 0;
  bool failed_ = false;
  SimTime wait_start_ = 0;
  bool waiting_ = false;
};

}  // namespace fbufs

#endif  // SRC_FAULT_FLOW_DRIVER_H_
