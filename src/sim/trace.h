// Event tracing: a lightweight, ring-buffered record of what the simulated
// kernel did and when — flat events, begin/end spans, and phase markers.
//
// Tracing is off by default and costs one branch per emission point when
// disabled. Enable categories selectively; events carry the simulated
// timestamp, a static label and two operands (addresses, ids, sizes —
// whatever the site finds useful). Spans (TracePhase::kBegin/kEnd) nest by
// emission order: the simulator is single-threaded per host, so a host's
// begin/end stream is properly bracketed and the Chrome-trace exporter
// (src/obs/trace_export.h) can render it directly. Phase markers
// (TraceCategory::kPhase) stamp campaign faults and bench phases onto the
// same timeline. Tests assert on sequences; humans read Dump() or load the
// exported JSON in Perfetto.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/clock.h"

namespace fbufs {

enum class TraceCategory : std::uint8_t {
  kVm = 0,    // mapping changes, protection, faults
  kFbuf,      // allocation, transfer, free, secure, paging
  kIpc,       // crossings, notices
  kProto,     // protocol sends/deliveries
  kNet,       // adapter / link activity
  kPhase,     // campaign fault phases, bench phases (markers)
  kCount,
};

// What kind of record an event is. kInstant is the historical flat event;
// kBegin/kEnd bracket a span; kMarker is a phase marker (rendered
// process-wide by the exporter).
enum class TracePhase : std::uint8_t {
  kInstant = 0,
  kBegin,
  kEnd,
  kMarker,
};

struct TraceEvent {
  SimTime time = 0;
  TraceCategory category = TraceCategory::kVm;
  TracePhase phase = TracePhase::kInstant;
  const char* what = "";  // static string supplied by the emission site
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Trace {
 public:
  explicit Trace(const SimClock* clock, std::size_t capacity = 4096)
      : clock_(clock), capacity_(capacity) {
    ring_.reserve(capacity);
  }

  // Re-points the timestamp source. A multicore Machine switches this to the
  // active CPU lane's clock so events are stamped on the lane that ran them.
  void set_clock(const SimClock* clock) { clock_ = clock; }

  // --- Control -----------------------------------------------------------------
  void Enable(TraceCategory c) { mask_ |= Bit(c); }
  void EnableAll() { mask_ = ~std::uint32_t{0}; }
  bool enabled(TraceCategory c) const { return (mask_ & Bit(c)) != 0; }

  // Re-sizes the ring. Only legal before any event was emitted (or after
  // Clear): campaigns that export full timelines raise the capacity before
  // enabling categories.
  void SetCapacity(std::size_t capacity) {
    assert(ring_.empty() && "Trace::SetCapacity: ring not empty");
    capacity_ = capacity;
    ring_.reserve(capacity);
  }
  std::size_t capacity() const { return capacity_; }

  // --- Emission (hot path) -------------------------------------------------------
  void Emit(TraceCategory c, const char* what, std::uint64_t a = 0, std::uint64_t b = 0) {
    EmitFull(c, TracePhase::kInstant, what, a, b);
  }

  // Span brackets. Use TraceSpan (RAII) at emission sites; these are the
  // raw primitives.
  void Begin(TraceCategory c, const char* what, std::uint64_t a = 0, std::uint64_t b = 0) {
    EmitFull(c, TracePhase::kBegin, what, a, b);
  }
  void End(TraceCategory c, const char* what, std::uint64_t a = 0, std::uint64_t b = 0) {
    EmitFull(c, TracePhase::kEnd, what, a, b);
  }

  // A phase marker on the kPhase category (campaign faults, bench phases).
  void Marker(const char* what, std::uint64_t a = 0, std::uint64_t b = 0) {
    EmitFull(TraceCategory::kPhase, TracePhase::kMarker, what, a, b);
  }

  // Copies |label| into trace-owned stable storage and returns a pointer
  // usable as a TraceEvent label. For dynamic labels (campaign fault names);
  // static strings should be passed directly.
  const char* Intern(const std::string& label) {
    interned_.push_back(label);
    return interned_.back().c_str();
  }

  // --- Inspection ----------------------------------------------------------------
  // Events in emission order (oldest surviving first).
  std::vector<TraceEvent> Snapshot() const {
    std::vector<TraceEvent> out;
    if (!wrapped_) {
      out.assign(ring_.begin(), ring_.end());
      return out;
    }
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
    return out;
  }

  // Count of surviving events whose label is |what|. Pointer equality fast
  // path (labels are usually literals emitted from one site), strcmp slow
  // path — never allocates.
  std::size_t Count(const char* what) const {
    std::size_t n = 0;
    for (const TraceEvent& e : ring_) {
      if (e.what == what || std::strcmp(e.what, what) == 0) {
        n++;
      }
    }
    return n;
  }

  void Clear() {
    ring_.clear();
    next_ = 0;
    wrapped_ = false;
    total_ = 0;
  }

  std::uint64_t total_emitted() const { return total_; }
  std::size_t size() const { return ring_.size(); }

  // Human-readable dump of up to |max| most recent events.
  std::string Dump(std::size_t max = 64) const;

 private:
  static std::uint32_t Bit(TraceCategory c) {
    return std::uint32_t{1} << static_cast<std::uint8_t>(c);
  }

  void EmitFull(TraceCategory c, TracePhase phase, const char* what, std::uint64_t a,
                std::uint64_t b) {
    if (!enabled(c)) {
      return;
    }
    TraceEvent e{clock_->Now(), c, phase, what, a, b};
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[next_] = e;
      wrapped_ = true;
    }
    next_ = (next_ + 1) % capacity_;
    total_++;
  }

  const SimClock* clock_;
  std::size_t capacity_;
  std::uint32_t mask_ = 0;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::uint64_t total_ = 0;
  std::deque<std::string> interned_;  // stable storage for dynamic labels
};

// RAII span: emits Begin on construction and End on destruction, both only
// when the category was enabled at construction time — a span stays balanced
// even if the mask is toggled while it is open.
class TraceSpan {
 public:
  TraceSpan(Trace& t, TraceCategory c, const char* what, std::uint64_t a = 0,
            std::uint64_t b = 0)
      : t_(&t), c_(c), what_(what), armed_(t.enabled(c)) {
    if (armed_) {
      t_->Begin(c_, what_, a, b);
    }
  }
  ~TraceSpan() {
    if (armed_) {
      t_->End(c_, what_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Trace* t_;
  TraceCategory c_;
  const char* what_;
  bool armed_;
};

const char* TraceCategoryName(TraceCategory c);

}  // namespace fbufs

#endif  // SRC_SIM_TRACE_H_
