// One capture per observed run: the benches' single owner of host-side
// observation.
//
// A bench declares, once, each machine it observes and which observers that
// machine gets (trace ring, fbuf journeys, metrics, lane conservation), and
// each Resource whose busy intervals it records. Declaring something arms
// it; WriteTrace() exports exactly the declared list in one fixed order;
// Journeys() applies the one journey verdict; the destructor detaches every
// tracker and registry the capture attached. Declare the capture after the
// world it observes, so it detaches before the world's teardown frees fbufs.
//
// Every observer is host-side bookkeeping: arming one never moves a
// simulated timestamp, so stdout, BENCH and CAMPAIGN files are the same
// whatever a run watches.
#ifndef BENCH_CAPTURE_H_
#define BENCH_CAPTURE_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_export.h"
#include "src/topo/topology.h"
#include "src/vm/machine.h"

namespace fbufs {
namespace bench {

// The observers one machine gets.
struct Observe {
  bool trace = false;         // its trace ring: every category, kTraceRing events
  bool journeys = false;      // a LifecycleTracker, judged by Journeys()
  bool metrics = false;       // the capture's MetricsRegistry
  bool conservation = false;  // one lane_conservation instant per CPU lane
};

// What Journeys() found, summed over every machine that keeps journeys.
struct JourneyVerdict {
  bool ok = false;
  std::uint64_t journeys = 0;  // recorded journeys
  std::uint64_t aborted = 0;   // journeys ended by a §3.3 abort
};

class RunCapture {
 public:
  static constexpr std::size_t kTraceRing = std::size_t{1} << 17;
  static constexpr std::size_t kJourneyCap = std::size_t{1} << 18;

  // |run| names the trace file (TRACE_<run>.json), its counter and lifecycle
  // processes, and the verdict's stderr lines. A |traced| run also arms what
  // only its trace reads: trace rings, resource busy intervals and
  // timestamped counter samples.
  explicit RunCapture(std::string run, bool traced = false)
      : run_(std::move(run)), traced_(traced) {
    if (traced_) {
      metrics_.EnableTraceSampling();
    }
  }

  RunCapture(const RunCapture&) = delete;
  RunCapture& operator=(const RunCapture&) = delete;

  ~RunCapture() {
    for (Watched& w : machines_) {
      if (w.tracker != nullptr) {
        w.machine->AttachLifecycle(nullptr);
      }
      if (w.what.metrics) {
        w.machine->AttachMetrics(nullptr);
      }
    }
    for (SwitchNode* sw : switches_) {
      sw->AttachMetrics(nullptr);
    }
  }

  // Observes |m|. Call while its trace ring is still empty (right after the
  // world is built). At most one machine gets metrics: it is the run's
  // subject, whose ElapsedNs() stamps the counter tracks' final points and
  // whose journeys, when it keeps them, export as the lifecycle flows.
  void Watch(Machine& m, Observe what) {
    Watched w{&m, what, nullptr};
    if (what.trace && traced_) {
      m.trace().SetCapacity(kTraceRing);
      m.trace().EnableAll();
    }
    if (what.journeys) {
      w.tracker = std::make_unique<LifecycleTracker>(&m, kJourneyCap);
      m.AttachLifecycle(w.tracker.get());
    }
    if (what.metrics) {
      assert(subject_ == nullptr && "RunCapture: two machines with metrics");
      subject_ = &m;
      m.AttachMetrics(&metrics_);
    }
    machines_.push_back(std::move(w));
  }

  // Records |r|'s busy intervals (in a traced run) for the trace.
  void Watch(Resource& r) {
    if (traced_) {
      r.set_record_intervals(true);
    }
    resources_.push_back(&r);
  }

  // Feeds |sw|'s queue-depth histograms into metrics().
  void Watch(SwitchNode& sw) {
    sw.AttachMetrics(&metrics_);
    switches_.push_back(&sw);
  }

  MetricsRegistry& metrics() { return metrics_; }

  // |m|'s journeys; |m| must have been watched with journeys.
  const LifecycleTracker& tracker(const Machine& m) const {
    const LifecycleTracker* t = FindTracker(m);
    if (t == nullptr) {
      std::fprintf(stderr, "%s: %s keeps no journeys\n", run_.c_str(),
                   m.name().c_str());
      std::abort();
    }
    return *t;
  }

  // The one journey verdict, over every machine that keeps journeys: each
  // ended journey closed with kFree or kAbort and balanced its pins, none
  // overflowed the cap, at least one was recorded, none is still open unless
  // |allow_open|, and at least |min_aborts| ended in a §3.3 abort. A failed
  // verdict prints one stderr line per machine, naming the run.
  JourneyVerdict Journeys(bool allow_open, std::uint64_t min_aborts = 0) const {
    JourneyVerdict v;
    LifecycleTracker::Reconciliation sum;
    for (const Watched& w : machines_) {
      if (w.tracker == nullptr) {
        continue;
      }
      const LifecycleTracker::Reconciliation rec = w.tracker->Reconcile();
      sum.open += rec.open;
      sum.pin_imbalance += rec.pin_imbalance;
      sum.bad_end += rec.bad_end;
      sum.dropped += rec.dropped;
      v.aborted += rec.aborted;
      v.journeys += w.tracker->journeys().size();
    }
    v.ok = sum.passed() && sum.dropped == 0 && v.journeys > 0 &&
           (allow_open || sum.open == 0) && v.aborted >= min_aborts;
    if (v.ok) {
      return v;
    }
    for (const Watched& w : machines_) {
      if (w.tracker == nullptr) {
        continue;
      }
      const LifecycleTracker::Reconciliation rec = w.tracker->Reconcile();
      std::fprintf(stderr,
                   "%s: journey verdict failed on %s: journeys=%zu open=%llu "
                   "pin_imbalance=%llu bad_end=%llu dropped=%llu aborted=%llu "
                   "(the run needs a journey, %llu aborts%s)\n",
                   run_.c_str(), w.machine->name().c_str(),
                   w.tracker->journeys().size(),
                   static_cast<unsigned long long>(rec.open),
                   static_cast<unsigned long long>(rec.pin_imbalance),
                   static_cast<unsigned long long>(rec.bad_end),
                   static_cast<unsigned long long>(rec.dropped),
                   static_cast<unsigned long long>(rec.aborted),
                   static_cast<unsigned long long>(min_aborts),
                   allow_open ? "" : ", none open");
    }
    return v;
  }

  // The declared list as a Chrome trace, in one fixed order: traced hosts
  // (pid 1, 2, ... in declaration order), resources (pid 9999), lane
  // conservation (pid 9998, one instant per CPU lane), the subject's counter
  // tracks (pid 30, "metrics/<run>") and its lifecycle flows (pid 31,
  // "lifecycle/<run>").
  TraceExporter Export() const {
    assert(traced_ && "RunCapture::Export: the run armed no trace");
    TraceExporter ex;
    std::uint32_t pid = 1;
    for (const Watched& w : machines_) {
      if (w.what.trace) {
        ex.AddHost(w.machine->name(), pid++, w.machine->trace());
      }
    }
    for (const Resource* r : resources_) {
      ex.AddResource(*r);
    }
    for (const Watched& w : machines_) {
      if (!w.what.conservation) {
        continue;
      }
      const Machine& m = *w.machine;
      for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
        ex.AddLaneConservation(m.cpu_lane(c).name(), m.attribution().ByCpu(c),
                               m.ElapsedNs());
      }
    }
    if (subject_ != nullptr) {
      ex.AddCounterTracks("metrics/" + run_, kCounterPid, metrics_,
                          subject_->ElapsedNs());
      if (const LifecycleTracker* t = FindTracker(*subject_)) {
        ex.AddLifecycleFlows("lifecycle/" + run_, kLifecyclePid, *t);
      }
    }
    return ex;
  }

  // Writes Export() to TRACE_<run>.json; false on I/O failure.
  bool WriteTrace() const {
    const std::string path = "TRACE_" + run_ + ".json";
    const TraceExporter ex = Export();
    if (!ex.WriteFile(path)) {
      std::fprintf(stderr, "%s: could not write %s\n", run_.c_str(), path.c_str());
      return false;
    }
    std::fprintf(stderr, "wrote %s (%zu events)\n", path.c_str(), ex.event_count());
    return true;
  }

 private:
  static constexpr std::uint32_t kCounterPid = 30;
  static constexpr std::uint32_t kLifecyclePid = 31;

  struct Watched {
    Machine* machine;
    Observe what;
    std::unique_ptr<LifecycleTracker> tracker;  // null without journeys
  };

  const LifecycleTracker* FindTracker(const Machine& m) const {
    for (const Watched& w : machines_) {
      if (w.machine == &m && w.tracker != nullptr) {
        return w.tracker.get();
      }
    }
    return nullptr;
  }

  std::string run_;
  bool traced_;
  MetricsRegistry metrics_;
  Machine* subject_ = nullptr;  // the machine watched with metrics
  std::vector<Watched> machines_;
  std::vector<Resource*> resources_;
  std::vector<SwitchNode*> switches_;
};

}  // namespace bench
}  // namespace fbufs

#endif  // BENCH_CAPTURE_H_
