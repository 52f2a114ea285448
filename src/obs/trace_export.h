// Chrome trace_event JSON export.
//
// Renders per-host Trace rings (spans, instants, phase markers) and
// EventLoop Resource busy intervals into the Chrome trace_event format, so a
// simulated run can be loaded into Perfetto (ui.perfetto.dev) or
// chrome://tracing and inspected on a real timeline UI.
//
// Mapping: each host is a process (pid); within a host, each TraceCategory
// is a thread lane (tid), so nested spans in one category render as a stack
// and concurrent layers sit side by side. Resources get their own lanes of
// "X" (complete) events under a shared "resources" pid. Phase markers become
// process-scoped instants. Timestamps are simulated nanoseconds printed as
// microseconds with three decimals — pure integer formatting, so export is
// deterministic: same seed, byte-identical file. That is why events are
// formatted here and not by the report writer (src/obs/json.h), whose
// ten-digit doubles would round a timestamp once a run passes 10 s; strings
// are quoted by its JsonQuote.
#ifndef SRC_OBS_TRACE_EXPORT_H_
#define SRC_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/event_loop.h"
#include "src/sim/trace.h"

namespace fbufs {

class LifecycleTracker;

class TraceExporter {
 public:
  // Adds one host's trace ring as a process lane group. |pid| must be unique
  // per host; the snapshot is taken at call time. When the ring wrapped, a
  // "trace_wrapped" instant on the phase lane carries the overwritten event
  // count, and every end whose begin was overwritten is dropped.
  void AddHost(const std::string& name, std::uint32_t pid, const Trace& trace);

  // Adds a resource's recorded busy intervals (requires
  // Resource::set_record_intervals(true) before the run) as a lane of "X"
  // events under the shared resources process.
  void AddResource(const Resource& resource);

  // Renders a MetricsRegistry as Chrome counter tracks ("C" events) under
  // process |pid| named |name|. Timestamped series (EnableTraceSampling +
  // Sample) become full tracks; gauges without a series get a single final
  // point at |final_ts|; histograms get a summary point (count, p50, p99).
  // Iteration is in name order, so export stays deterministic.
  void AddCounterTracks(const std::string& name, std::uint32_t pid,
                        const MetricsRegistry& metrics, SimTime final_ts);

  // Renders every journey the tracker recorded as Chrome flow events under
  // process |pid| named |name|: one lane (tid) per domain, a short "X" slice
  // per hop (named after the hop kind, args carry journey/fbuf/layer/cpu),
  // and an 's'/'t'/'f' flow chain with id = journey id binding the hops, so
  // one fbuf's path renders as arrows across the domain lanes in Perfetto.
  void AddLifecycleFlows(const std::string& name, std::uint32_t pid,
                         const LifecycleTracker& tracker);

  // One "lane_conservation" instant at |elapsed| for CPU lane |lane_name|:
  // args carry busy/idle/elapsed so tools/validate_traces.py can re-check
  // busy + idle == elapsed per lane. Lanes share a "conservation" process.
  void AddLaneConservation(const std::string& lane_name, SimTime busy,
                           SimTime elapsed);

  // The complete trace document: {"traceEvents":[...],"displayTimeUnit":"ns"}.
  std::string ToJson() const;

  // Writes ToJson() to |path| (WriteTextFile); false on I/O failure.
  bool WriteFile(const std::string& path) const;

  std::size_t event_count() const { return events_.size(); }

 private:
  struct ExportEvent {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    SimTime ts = 0;
    SimTime dur = 0;         // "X" events only
    char ph = 'i';           // B, E, i, X, M, C, s, t, f
    std::string name;
    std::string args;        // pre-rendered JSON object body, may be empty
    std::string cat;
    std::uint64_t flow_id = 0;  // 's'/'t'/'f' events only
  };

  void AppendMeta(std::uint32_t pid, std::uint32_t tid, const char* what,
                  const std::string& name);

  static void AppendTimestamp(std::string* out, SimTime ns);

  std::vector<ExportEvent> events_;
  std::uint32_t next_resource_tid_ = 0;
  std::uint32_t next_lane_tid_ = 0;
  static constexpr std::uint32_t kResourcePid = 9999;
  static constexpr std::uint32_t kConservationPid = 9998;
};

}  // namespace fbufs

#endif  // SRC_OBS_TRACE_EXPORT_H_
