// Discrete-event simulation core.
//
// The engine that coordinates every timeline in the simulator: a
// deterministic event queue keyed by (SimTime, sequence number) plus
// Resource objects modelling serially-reusable things (a host CPU, a
// TurboChannel DMA engine, the wire). Layers above schedule work as events;
// per-host SimClocks are views over the loop's time in the sense that they
// only move while the loop dispatches events on that host, and resources
// account their own busy time so utilization (CPU load, bus occupancy) falls
// out of the schedule instead of being hand-computed.
//
// Determinism: two runs that schedule the same events in the same order
// dispatch them identically — ties in time break by schedule order (seq).
// The loop keeps a running FNV-1a hash of every dispatched event and can
// record the full trace, so tests can assert byte-identical replays.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/sim/clock.h"

namespace fbufs {

class EventLoop {
 public:
  using Handler = std::function<void()>;
  using EventId = std::uint64_t;

  struct TraceEntry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::string label;

    bool operator==(const TraceEntry& o) const {
      return time == o.time && seq == o.seq && label == o.label;
    }
  };

  // Dispatch floor: the key of the most recently dispatched event. Event
  // keys order the schedule; handlers read their own host clocks for a
  // host's notion of time (host timelines are only partially ordered).
  SimTime Now() const { return now_; }

  // Schedules |fn| to run at |t|. The queue is monotonic: scheduling behind
  // the dispatch floor is a bug in the caller's timeline arithmetic.
  EventId Schedule(SimTime t, std::string label, Handler fn);
  // Schedules |fn| at |t|, or at the dispatch floor when |t| lies behind it.
  // A time computed from a host clock or a resource's busy-until can trail
  // the floor (host timelines are only partially ordered), so clamp the
  // event key, never the time: the handler still reads |t| (or its host
  // clock) for the simulated moment it stands for.
  EventId ScheduleAtLeast(SimTime t, std::string label, Handler fn) {
    return Schedule(t > now_ ? t : now_, std::move(label), std::move(fn));
  }

  // Cancels a pending event. Returns true when the event existed and had not
  // yet been dispatched; a cancelled event never dispatches, never enters the
  // trace (or the trace hash), and does not count as dispatched. Re-armed
  // timers (SWP's RTO) and drained queues cancel instead of letting stale
  // events fire as no-ops.
  bool Cancel(EventId id);

  // Dispatches the earliest pending event. Returns false when the queue is
  // empty (quiescence).
  bool RunOne();

  // Runs to quiescence; returns the number of events dispatched.
  std::uint64_t Run();

  // Dispatches every event with key <= |t| (bounded run for open-ended
  // schedules such as retransmission timers that re-arm themselves).
  std::uint64_t RunUntil(SimTime t);

  bool empty() const { return pending() == 0; }
  // Cancelled events still sitting in the queue do not count as pending.
  std::size_t pending() const { return queue_.size() - cancelled_.size(); }
  std::uint64_t events_dispatched() const { return dispatched_; }
  std::uint64_t events_cancelled() const { return cancelled_total_; }

  // FNV-1a over (time, seq, label) of every dispatched event.
  std::uint64_t trace_hash() const { return trace_hash_; }

  void set_record_trace(bool on) { record_trace_ = on; }
  const std::vector<TraceEntry>& trace() const { return trace_; }

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::string label;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  void HashDispatch(const Event& e);
  // Discards cancelled events from the queue head so callers see live state.
  void PurgeCancelledTop();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> live_;       // scheduled, not yet dispatched
  std::unordered_set<EventId> cancelled_;  // cancelled, still in the queue
  std::uint64_t cancelled_total_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t trace_hash_ = 14695981039346656037ull;  // FNV offset basis
  bool record_trace_ = false;
  std::vector<TraceEntry> trace_;
};

// A serially-reusable resource: at most one piece of work occupies it at a
// time, and work that finds it busy queues behind the current occupant
// (busy-until algebra). Tracks total occupied time inside an accounting
// window so per-resource utilization is a byproduct of the schedule.
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  // Work that becomes ready at |ready| and occupies the resource for
  // |duration| completes at the returned time.
  SimTime Acquire(SimTime ready, SimTime duration) {
    const SimTime start = ready > busy_until_ ? ready : busy_until_;
    busy_until_ = start + duration;
    acquisitions_++;
    RecordBusy(start, busy_until_);
    return busy_until_;
  }

  // Accounts externally-timed occupancy (a CPU whose work is charged to a
  // SimClock by the code that runs on it). Intervals must not overlap.
  void RecordBusy(SimTime start, SimTime end) {
    if (end <= start) {
      return;
    }
    if (record_intervals_) {
      intervals_.push_back({start, end});
    }
    if (start < window_start_) {
      start = end > window_start_ ? window_start_ : end;
    }
    busy_ns_ += end - start;
  }

  // Busy-interval recording, for the trace exporter's per-resource lanes.
  // Off by default (zero cost beyond one branch per RecordBusy).
  struct BusyInterval {
    SimTime start = 0;
    SimTime end = 0;
  };
  void set_record_intervals(bool on) { record_intervals_ = on; }
  const std::vector<BusyInterval>& intervals() const { return intervals_; }

  // Restarts utilization accounting at |at|; busy time before it no longer
  // counts (measurement begins after warmup).
  void ResetAccounting(SimTime at) {
    window_start_ = at;
    busy_ns_ = 0;
  }

  SimTime busy_until() const { return busy_until_; }
  SimTime busy_ns() const { return busy_ns_; }
  SimTime window_start() const { return window_start_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  const std::string& name() const { return name_; }

  // Fraction of [window_start, until] the resource was occupied. Acquire
  // records a whole occupancy up front, so on a saturated resource busy time
  // can outrun the window; a fraction above 1.0 is an accounting artifact,
  // not a physical possibility — clamp it.
  double Utilization(SimTime until) const {
    if (until <= window_start_) {
      return 0.0;
    }
    const double u =
        static_cast<double>(busy_ns_) / static_cast<double>(until - window_start_);
    return u > 1.0 ? 1.0 : u;
  }

  // Like Utilization, but busy_until()-aware: work still in flight when the
  // window closes at |until| is trimmed to the window, so a saturated
  // resource reports ~1.0 instead of counting occupancy that lies in the
  // future. (Intervals are non-overlapping and ordered on a serial resource,
  // so everything past |until| belongs to the in-flight tail.)
  double UtilizationInWindow(SimTime until) const {
    if (until <= window_start_) {
      return 0.0;
    }
    SimTime busy = busy_ns_;
    if (busy_until_ > until) {
      const SimTime overhang = busy_until_ - until;
      busy = overhang >= busy ? 0 : busy - overhang;
    }
    const double u = static_cast<double>(busy) / static_cast<double>(until - window_start_);
    return u > 1.0 ? 1.0 : u;
  }

  void Reset() {
    busy_until_ = 0;
    busy_ns_ = 0;
    window_start_ = 0;
    acquisitions_ = 0;
    intervals_.clear();
  }

 private:
  std::string name_;
  SimTime busy_until_ = 0;
  SimTime busy_ns_ = 0;
  SimTime window_start_ = 0;
  std::uint64_t acquisitions_ = 0;
  bool record_intervals_ = false;
  std::vector<BusyInterval> intervals_;
};

}  // namespace fbufs

#endif  // SRC_SIM_EVENT_LOOP_H_
