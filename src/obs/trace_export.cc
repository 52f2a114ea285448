#include "src/obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <map>

#include "src/obs/json.h"
#include "src/obs/lifecycle.h"

namespace fbufs {

namespace {

// Lane (tid) per trace category inside a host process. Markers share the
// phase lane.
std::uint32_t TidFor(TraceCategory c) { return static_cast<std::uint32_t>(c); }

}  // namespace

void TraceExporter::AppendTimestamp(std::string* out, SimTime ns) {
  // Microseconds with nanosecond precision, integer arithmetic only.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000, ns % 1000);
  out->append(buf);
}

void TraceExporter::AppendMeta(std::uint32_t pid, std::uint32_t tid, const char* what,
                               const std::string& name) {
  ExportEvent e;
  e.pid = pid;
  e.tid = tid;
  e.ph = 'M';
  e.name = what;
  e.args = "\"name\":" + JsonQuote(name);
  events_.push_back(std::move(e));
}

void TraceExporter::AddHost(const std::string& name, std::uint32_t pid, const Trace& trace) {
  AppendMeta(pid, 0, "process_name", name);
  for (std::uint8_t c = 0; c < static_cast<std::uint8_t>(TraceCategory::kCount); ++c) {
    AppendMeta(pid, TidFor(static_cast<TraceCategory>(c)), "thread_name",
               TraceCategoryName(static_cast<TraceCategory>(c)));
  }
  const std::vector<TraceEvent> events = trace.Snapshot();
  // A wrapped ring overwrote its oldest events: one instant where the
  // surviving timeline starts says how many, so a partial trace reads as
  // partial.
  if (trace.total_emitted() > events.size()) {
    ExportEvent e;
    e.pid = pid;
    e.tid = TidFor(TraceCategory::kPhase);
    e.ts = events.front().time;
    e.name = "trace_wrapped";
    e.cat = TraceCategoryName(TraceCategory::kPhase);
    e.args = "\"overwritten\":" + std::to_string(trace.total_emitted() - events.size());
    events_.push_back(std::move(e));
  }
  // Open spans per lane. An end whose begin the ring overwrote is dropped,
  // so the export stays bracketed.
  std::uint64_t depth[static_cast<std::size_t>(TraceCategory::kCount)] = {};
  for (const TraceEvent& ev : events) {
    std::uint64_t& open = depth[static_cast<std::size_t>(ev.category)];
    if (ev.phase == TracePhase::kEnd) {
      if (open == 0) {
        continue;
      }
      open--;
    } else if (ev.phase == TracePhase::kBegin) {
      open++;
    }
    ExportEvent e;
    e.pid = pid;
    e.tid = TidFor(ev.category);
    e.ts = ev.time;
    e.name = ev.what;
    e.cat = TraceCategoryName(ev.category);
    switch (ev.phase) {
      case TracePhase::kBegin:
        e.ph = 'B';
        break;
      case TracePhase::kEnd:
        e.ph = 'E';
        break;
      case TracePhase::kMarker:
        e.ph = 'i';
        break;
      case TracePhase::kInstant:
        e.ph = 'i';
        break;
    }
    if (e.ph != 'E') {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"a\":%" PRIu64 ",\"b\":%" PRIu64, ev.a, ev.b);
      e.args = buf;
    }
    events_.push_back(std::move(e));
  }
}

void TraceExporter::AddResource(const Resource& resource) {
  const std::uint32_t tid = next_resource_tid_++;
  if (tid == 0) {
    AppendMeta(kResourcePid, 0, "process_name", "resources");
  }
  AppendMeta(kResourcePid, tid, "thread_name", resource.name());
  for (const Resource::BusyInterval& iv : resource.intervals()) {
    ExportEvent e;
    e.pid = kResourcePid;
    e.tid = tid;
    e.ts = iv.start;
    e.dur = iv.end - iv.start;
    e.ph = 'X';
    e.name = "busy";
    e.cat = "resource";
    events_.push_back(std::move(e));
  }
}

void TraceExporter::AddCounterTracks(const std::string& name, std::uint32_t pid,
                                     const MetricsRegistry& metrics,
                                     SimTime final_ts) {
  AppendMeta(pid, 0, "process_name", name);
  auto counter = [&](const std::string& track, SimTime ts, std::string args) {
    ExportEvent e;
    e.pid = pid;
    e.tid = 0;
    e.ts = ts;
    e.ph = 'C';
    e.name = track;
    e.cat = "metric";
    e.args = std::move(args);
    events_.push_back(std::move(e));
  };
  for (const auto& [track, series] : metrics.series()) {
    for (const auto& [when, value] : series) {
      counter(track, when, "\"value\":" + std::to_string(value));
    }
  }
  for (const auto& [track, gauge] : metrics.gauges()) {
    if (metrics.series().count(track) != 0) {
      continue;  // already a full track above
    }
    counter(track, final_ts, "\"value\":" + std::to_string(gauge.value()));
  }
  for (const auto& [track, hist] : metrics.histograms()) {
    counter(track, final_ts,
            "\"count\":" + std::to_string(hist.count()) +
                ",\"p50\":" + std::to_string(hist.ApproxQuantile(0.5)) +
                ",\"p99\":" + std::to_string(hist.ApproxQuantile(0.99)));
  }
}

void TraceExporter::AddLifecycleFlows(const std::string& name,
                                      std::uint32_t pid,
                                      const LifecycleTracker& tracker) {
  AppendMeta(pid, 0, "process_name", name);
  // One lane per domain, allocated in first-encounter order across the
  // deterministic journey sequence, so same-seed exports stay identical.
  std::map<DomainId, std::uint32_t> lanes;
  auto lane = [&](DomainId d) {
    auto it = lanes.find(d);
    if (it != lanes.end()) {
      return it->second;
    }
    const std::uint32_t tid = static_cast<std::uint32_t>(lanes.size());
    lanes.emplace(d, tid);
    AppendMeta(pid, tid, "thread_name", "domain" + std::to_string(d));
    return tid;
  };
  for (const Journey& j : tracker.journeys()) {
    const std::size_t n = j.hops.size();
    for (std::size_t i = 0; i < n; ++i) {
      const LifecycleHop& hop = j.hops[i];
      const std::uint32_t tid = lane(hop.domain);
      // The hop slice: a fixed-width marker the flow arrows can bind to
      // (Chrome flow events attach to the slice enclosing their timestamp).
      ExportEvent x;
      x.pid = pid;
      x.tid = tid;
      x.ts = hop.time;
      x.dur = 1000;
      x.ph = 'X';
      x.name = HopKindName(hop.kind);
      x.cat = "lifecycle";
      x.args = "\"journey\":" + std::to_string(j.id) +
               ",\"fbuf\":" + std::to_string(j.fbuf) +
               ",\"layer\":" + JsonQuote(hop.layer) +
               ",\"cpu\":" + std::to_string(hop.cpu) +
               ",\"arg\":" + std::to_string(hop.arg);
      events_.push_back(std::move(x));
      if (n < 2) {
        continue;  // a single-hop journey has no arrow to draw
      }
      ExportEvent f;
      f.pid = pid;
      f.tid = tid;
      f.ts = hop.time;
      f.ph = i == 0 ? 's' : (i + 1 == n ? 'f' : 't');
      f.name = "fbuf-journey";
      f.cat = "lifecycle";
      f.flow_id = j.id;
      events_.push_back(std::move(f));
    }
  }
}

void TraceExporter::AddLaneConservation(const std::string& lane_name,
                                        SimTime busy, SimTime elapsed) {
  const std::uint32_t tid = next_lane_tid_++;
  if (tid == 0) {
    AppendMeta(kConservationPid, 0, "process_name", "conservation");
  }
  AppendMeta(kConservationPid, tid, "thread_name", lane_name);
  ExportEvent e;
  e.pid = kConservationPid;
  e.tid = tid;
  e.ts = elapsed;
  e.ph = 'i';
  e.name = "lane_conservation";
  e.cat = "conservation";
  const SimTime idle = elapsed >= busy ? elapsed - busy : 0;
  e.args = "\"busy\":" + std::to_string(busy) +
           ",\"idle\":" + std::to_string(idle) +
           ",\"elapsed\":" + std::to_string(elapsed);
  events_.push_back(std::move(e));
}

std::string TraceExporter::ToJson() const {
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const ExportEvent& e : events_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":";
    out += JsonQuote(e.name);
    out += ",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":";
    out += std::to_string(e.pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    if (e.ph != 'M') {
      out += ",\"ts\":";
      AppendTimestamp(&out, e.ts);
    }
    if (e.ph == 'X') {
      out += ",\"dur\":";
      AppendTimestamp(&out, e.dur);
    }
    if (e.ph == 'i') {
      // Thread-scoped instants; markers read better process-wide but "t"
      // keeps them on their category lane.
      out += ",\"s\":\"t\"";
    }
    if (e.ph == 's' || e.ph == 't' || e.ph == 'f') {
      out += ",\"id\":";
      out += std::to_string(e.flow_id);
      if (e.ph == 'f') {
        // Bind the terminating arrow to the enclosing slice, matching the
        // 's'/'t' steps (Chrome's bp:"e" flow-end convention).
        out += ",\"bp\":\"e\"";
      }
    }
    if (!e.cat.empty()) {
      out += ",\"cat\":";
      out += JsonQuote(e.cat);
    }
    if (!e.args.empty()) {
      out += ",\"args\":{";
      out += e.args;
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

bool TraceExporter::WriteFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace fbufs
