// CPU lanes and evented dispatch queues: the multicore substrate.
//
// A CpuLane generalizes Resource into a schedulable CPU: it keeps the
// Resource busy-until/utilization algebra and adds its own SimClock — the
// lane's timeline. A multicore Machine owns N lanes; work executed "on" a
// lane charges that lane's clock, so two lanes of one host genuinely overlap
// in simulated time while work on one lane stays serial.
//
// A DispatchQueue is the scheduling primitive on top: work items enqueue
// with a ready time and run when their lane frees, in enqueue order.
// Queueing delay (start - ready) is measured per item, so scheduler-induced
// latency under load is an output of the schedule, not a modeled constant.
// Several queues may bind to one lane (per-domain queues sharing a CPU);
// they serialize through the lane's clock, exactly like runnable threads
// sharing a run queue.
//
// Determinism: items run in (ready-time, enqueue order) via the EventLoop's
// (time, seq) keys; no wall clock, no randomness. Same schedule, same run.
#ifndef SRC_SIM_DISPATCH_H_
#define SRC_SIM_DISPATCH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/sim/clock.h"
#include "src/sim/event_loop.h"

namespace fbufs {

// A schedulable CPU: serial Resource occupancy plus the lane's own timeline.
class CpuLane : public Resource {
 public:
  CpuLane(std::string name, std::uint32_t index)
      : Resource(std::move(name)), index_(index) {}

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  std::uint32_t index() const { return index_; }

 private:
  SimClock clock_;
  std::uint32_t index_;
};

// RSS-style steering: hash a flow key (a VCI) to a fixed lane so one flow's
// receive processing always lands on the same CPU (packet order preserved
// per flow, cache affinity preserved per lane) while distinct flows spread.
// Fibonacci hashing; any fixed multiplier works, determinism is what counts.
inline std::uint32_t RssSteer(std::uint32_t key, std::uint32_t lanes) {
  if (lanes <= 1) {
    return 0;
  }
  return static_cast<std::uint32_t>((key * 2654435761u) >> 16) % lanes;
}

// Serializes work items onto one CpuLane. Items run to completion in enqueue
// order; an item that finds the lane still busy with its predecessor waits,
// and the wait is accounted. The |work| callback is expected to charge the
// lane's clock (that is how its cost is measured); |done| fires with the
// item's completion time on the lane.
class DispatchQueue {
 public:
  using Work = std::function<void()>;
  using Done = std::function<void(SimTime)>;
  // Per-item queueing-delay observer (the aggregate observer below sees every
  // item; this one lets the submitter slice waits by its own key, e.g. path).
  using WaitCb = std::function<void(SimTime)>;

  DispatchQueue(EventLoop* loop, CpuLane* lane, std::string name)
      : loop_(loop), lane_(lane), name_(std::move(name)) {}

  DispatchQueue(const DispatchQueue&) = delete;
  DispatchQueue& operator=(const DispatchQueue&) = delete;

  // Context hooks bracket every item (and the idle-wait that may precede
  // it): a multicore Machine installs them to switch its active CPU to this
  // queue's lane, so clock charges inside |work| land on the right timeline.
  void SetContextHooks(std::function<void()> enter, std::function<void()> exit) {
    enter_ = std::move(enter);
    exit_ = std::move(exit);
  }

  // Observes each item's start time (on the lane's timeline) and queueing
  // delay as it begins running (metrics export).
  void SetWaitObserver(std::function<void(SimTime, SimTime)> obs) {
    wait_obs_ = std::move(obs);
  }

  // Enqueues |work|, ready to run at |ready| on the lane's timeline. The
  // queue drains itself through the event loop; callers never block.
  void Enqueue(SimTime ready, std::string label, Work work, Done done = {},
               WaitCb wait_cb = {}) {
    items_.push_back(Item{ready, std::move(label), std::move(work), std::move(done),
                          std::move(wait_cb)});
    enqueued_++;
    if (depth() > max_depth_) {
      max_depth_ = depth();
    }
    if (!pump_scheduled_) {
      SchedulePump(ready);
    }
  }

  CpuLane& lane() { return *lane_; }
  const std::string& name() const { return name_; }
  std::size_t depth() const { return items_.size(); }
  std::size_t max_depth() const { return max_depth_; }
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t completed() const { return completed_; }
  // Total and maximum queueing delay (start - ready) over completed items:
  // the scheduler-induced latency the single-clock model could not show.
  SimTime total_wait_ns() const { return total_wait_ns_; }
  SimTime max_wait_ns() const { return max_wait_ns_; }

 private:
  struct Item {
    SimTime ready = 0;
    std::string label;
    Work work;
    Done done;
    WaitCb wait_cb;
  };

  void SchedulePump(SimTime ready) {
    pump_scheduled_ = true;
    // The event key only orders dispatch; the true start time is computed
    // against the lane clock when the item actually runs.
    loop_->ScheduleAtLeast(ready, "dispatch/" + name_, [this] { Pump(); });
  }

  void Pump() {
    pump_scheduled_ = false;
    if (items_.empty()) {
      return;
    }
    Item item = std::move(items_.front());
    items_.pop_front();
    const SimTime start = std::max(item.ready, lane_->clock().Now());
    const SimTime wait = start - item.ready;
    total_wait_ns_ += wait;
    if (wait > max_wait_ns_) {
      max_wait_ns_ = wait;
    }
    if (wait_obs_) {
      wait_obs_(start, wait);
    }
    if (item.wait_cb) {
      item.wait_cb(wait);
    }
    if (enter_) {
      enter_();
    }
    // Idle until the item's ready time (DMA completion, message arrival):
    // attributed as wait on the lane's own timeline. The queue owns arrival
    // on its lane: a wake that advanced the lane before the pump ran would
    // push |start| of earlier-ready queued items late.
    lane_->clock().AdvanceToAtLeast(start);
    const SimTime before = lane_->clock().Now();
    item.work();
    const SimTime after = lane_->clock().Now();
    lane_->RecordBusy(before, after);
    if (exit_) {
      exit_();
    }
    completed_++;
    if (item.done) {
      item.done(after);
    }
    if (!items_.empty() && !pump_scheduled_) {
      SchedulePump(std::max(items_.front().ready, lane_->clock().Now()));
    }
  }

  EventLoop* loop_;
  CpuLane* lane_;
  std::string name_;
  std::deque<Item> items_;
  bool pump_scheduled_ = false;
  std::size_t max_depth_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t completed_ = 0;
  SimTime total_wait_ns_ = 0;
  SimTime max_wait_ns_ = 0;
  std::function<void()> enter_;
  std::function<void()> exit_;
  std::function<void(SimTime, SimTime)> wait_obs_;
};

}  // namespace fbufs

#endif  // SRC_SIM_DISPATCH_H_
