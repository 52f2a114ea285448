// The benchmark's three workloads, one per harness world (NOTES.md says why
// each exists and which layers it stresses or bypasses):
//
//   stream — bulk UDP/IP over the one-link Testbed (TopologyRunner);
//   serve  — a closed-loop ServeWorld star with 16 clients;
//   incast — a fixed-window IncastWorld at fan-in 8.
//
// A workload is built once from the seed (its inputs) and then iterated: each
// iteration constructs a fresh world, runs it to quiescence, checks it, and
// reports deterministic simulated outputs separately from host timings.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using HostClock = std::chrono::steady_clock;

// Host-time spans recorded from the benchmark's own code around its calls
// into the simulator. When disabled, Time() still returns the duration (the
// end-to-end metrics need it) but records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index into spans(), -1 for a root
    double start_us = 0;
    double dur_us = 0;
    std::uint64_t iteration = 0;
  };

  Tracer() : origin_(HostClock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_iteration(std::uint64_t i) { iteration_ = i; }

  // Runs |fn| and returns its host duration in seconds, recording a span
  // named |name| (nested under the enclosing span) when enabled.
  template <typename Fn>
  double Time(const char* name, Fn&& fn) {
    const int id = enabled_ ? Open(name) : -1;
    const HostClock::time_point start = HostClock::now();
    fn();
    const HostClock::time_point end = HostClock::now();
    if (id >= 0) {
      Close(id, start, end);
    }
    return std::chrono::duration<double>(end - start).count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events), loadable in Perfetto.
  std::string ChromeJson() const;

 private:
  int Open(const char* name);
  void Close(int id, HostClock::time_point start, HostClock::time_point end);

  HostClock::time_point origin_;
  bool enabled_ = false;
  std::uint64_t iteration_ = 0;
  int current_ = -1;
  std::vector<Span> spans_;
};

// PDUs of similar length that crossed the wire as ATM cells: |pdus| of them,
// |wire_bytes| in total (cells x 48). The net probe replays them.
struct PduGroup {
  std::uint64_t pdus = 0;
  std::uint64_t wire_bytes = 0;
};

// One measured iteration.
struct Iteration {
  // Deterministic outputs: simulated metrics and counts, in report order.
  std::vector<std::pair<std::string, double>> sim;
  // Host time, seconds.
  double setup_s = 0;      // world construction, before the first event
  double run_s = 0;        // the event loop run(s), to quiescence
  double audit_s = 0;      // §3.3 audits + conservation checks
  double reconcile_s = 0;  // lifecycle reconciliation (tracked iterations)
  std::uint64_t wire_pdus = 0;  // PDUs the simulated wire carried
  std::uint64_t events = 0;     // events the loop dispatched in the run
  std::uint64_t attempted = 0;  // operations attempted (messages/requests)
  std::uint64_t failed = 0;     // operations that did not complete
  // Probe inputs (traced runs): the run's cell-carried PDUs and the
  // physical frame count of every machine the world built.
  std::vector<PduGroup> cell_pdus;
  std::vector<std::uint32_t> machine_frames;
  // Empty when every correctness check passed.
  std::string failure;
};

// Runs one iteration; |track_lifecycle| attaches fbuf provenance tracking and
// reconciles it (the runner does so on the untimed warmup iteration).
using Workload = std::function<Iteration(Tracer&, bool track_lifecycle)>;

// Builds the named workload's inputs from |seed|. Returns an empty function
// for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
