// Macro-workload: the zero-copy file server under a web-shaped request mix.
//
// A ServeWorld star (one server host, a fan-in of client hosts) serves tens
// of thousands of logical request flows drawn from the classic web-server
// distributions: Zipf object popularity (the exponent swept across rows)
// and bounded-Pareto response sizes, both from the deterministic generators
// in bench_util.h. Every cache hit travels sendfile-style — the cached
// block's fbuf IS the wire payload, pinned for the flight, zero bytes
// copied — and every row reports p50/p99/p999 request latency, goodput,
// and hit ratio.
//
// Beyond the popularity sweep the same workload runs:
//   * over transfer rings (batched request crossings, same flows);
//   * under memory pressure (tight physical pool; misses that cannot stage
//     a block take the degraded copy path, pinned blocks ride it out);
//   * under fire (a client link flaps dark mid-download; a client's app
//     domain is destroyed mid-download);
//   * open loop, below saturation (one-block requests 8 ms apart), where
//     no request may complete faster than its response crossed the wire.
//
// Every point hard-checks the §3.3 invariant audit on every host (zero
// leaked frames, refcounts exact, no dangling mappings), zero leftover
// pins/inflight requests on the server, per-lane attribution conservation
// (TimeAttributionJson aborts on any hole), and the zero-copy claim itself
// (server bytes_copied == 0 everywhere except the degraded-pressure row,
// which must copy). The churn row exports TRACE_server.json — server +
// victim-client timelines with the fault marked — and the whole table is
// written to BENCH_server.json, byte-identical across runs.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/capture.h"
#include "src/fault/auditor.h"
#include "src/obs/latency.h"
#include "src/serve/serve_world.h"
#include "src/sim/rng.h"

namespace fbufs {
namespace bench {
namespace {

bool g_smoke = false;

// --- Workload ----------------------------------------------------------------

struct WorkloadConfig {
  std::uint64_t requests = 8000;
  std::uint32_t files = 400;
  std::uint32_t max_blocks = 8;  // Pareto-sized responses, in cache blocks
  unsigned zipf_quarters = 4;    // s = quarters/4
  SimTime interarrival_ns = 5000;
  std::uint64_t seed = 0x5e44ef11e5;
};

std::vector<ServeRequestSpec> BuildSchedule(const WorkloadConfig& wl,
                                            std::size_t clients,
                                            std::uint64_t block_bytes) {
  ZipfGenerator zipf(wl.seed, wl.files, wl.zipf_quarters);
  // Sizes from one block up to the full max_blocks response, alpha ~ 1.33.
  ParetoGenerator pareto(wl.seed ^ 0x9e3779b97f4a7c15ull, block_bytes,
                         wl.max_blocks * block_bytes, 3);
  Rng pick(wl.seed ^ 0xda7a5eed);
  std::vector<ServeRequestSpec> schedule;
  schedule.reserve(wl.requests);
  for (std::uint64_t i = 0; i < wl.requests; ++i) {
    ServeRequestSpec s;
    s.at = i * wl.interarrival_ns;
    s.client = static_cast<std::uint32_t>(pick.Next() % clients);
    s.file = static_cast<FileId>(zipf.Next());
    const std::uint64_t bytes = pareto.Next();
    s.blocks = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(wl.max_blocks,
                                (bytes + block_bytes - 1) / block_bytes));
    schedule.push_back(s);
  }
  return schedule;
}

// --- Hard checks -------------------------------------------------------------

// §3.3 invariant audit over every host of the world, plus the serve-side
// pin discipline: after a drained run nothing may stay pinned or inflight,
// no matter how the flows ended.
void AuditWorld(ServeWorld& w, const std::string& label) {
  bool ok = true;
  auto check = [&](SimHost& h) {
    const HostAuditResult r =
        InvariantAuditor::AuditHost(h.machine.name(), h.machine, h.fsys);
    if (!r.passed) {
      std::fprintf(stderr,
                   "server[%s]: §3.3 audit FAILED on %s: leaked=%llu "
                   "rc-mismatch=%llu dangling=%llu freelist=%llu\n",
                   label.c_str(), r.host.c_str(),
                   static_cast<unsigned long long>(r.leaked_frames),
                   static_cast<unsigned long long>(r.refcount_mismatches),
                   static_cast<unsigned long long>(r.dangling_mappings),
                   static_cast<unsigned long long>(r.free_list_errors));
      ok = false;
    }
  };
  check(w.server());
  for (std::size_t i = 0; i < w.client_count(); ++i) {
    check(w.client(i));
  }
  if (w.file_server().inflight_requests() != 0 || w.cache().total_pins() != 0) {
    std::fprintf(stderr,
                 "server[%s]: pin leak: %llu requests inflight, %llu pins "
                 "held after drain\n",
                 label.c_str(),
                 static_cast<unsigned long long>(
                     w.file_server().inflight_requests()),
                 static_cast<unsigned long long>(w.cache().total_pins()));
    ok = false;
  }
  if (!ok) {
    std::abort();
  }
}

// --- One measurement row -----------------------------------------------------

struct RowSpec {
  std::string variant;
  WorkloadConfig workload;
  std::size_t clients = 16;
  std::uint32_t max_inflight = 64;
  bool use_rings = false;
  bool tight_memory = false;  // pressure row: small pool + PressureManager
  SimTime stall_horizon = 0;  // 0 = the world's default watchdog
  // Faults, scheduled on the world's loop before the run. kNoFault = none.
  enum class Fault { kNone, kLinkFlap, kClientChurn };
  Fault fault = Fault::kNone;
  bool expect_copies = false;  // degraded row must copy; everyone else must not
  bool export_trace = false;
};

struct RowResult {
  ServeRunStats stats;
  std::uint64_t server_bytes_copied = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t pin_blocked_evictions = 0;
  SimTime p50 = 0, p99 = 0, p999 = 0;
  SimTime min_wire = 0;  // the row's quickest PDU over the network path
  SimTime min_pin_hold = 0;  // the row's shortest cache-block pin
  Json attribution_json;
  // Fbuf provenance on the server machine: journeys recorded and aborted
  // (reconciliation itself is a hard check inside RunRow).
  std::uint64_t journeys = 0;
  std::uint64_t aborted_journeys = 0;
  Json latency_json;  // ServeWorld LatencyDecomposition::ToJson()
};

RowResult RunRow(const RowSpec& spec) {
  ServeWorldConfig cfg;
  cfg.clients = spec.clients;
  cfg.max_inflight = spec.max_inflight;
  cfg.use_rings = spec.use_rings;
  if (spec.stall_horizon > 0) {
    cfg.stall_horizon = spec.stall_horizon;
  }
  cfg.cache.block_bytes = 8192;
  // A 90s disk array, not the single 2 MB/s spindle: the bench studies the
  // serving path, and a 15 ms seek per cold block would drown everything.
  cfg.cache.disk_access_ns = 1 * kMillisecond;
  cfg.cache.disk_mbps = 64;
  cfg.cache.capacity_blocks = 128;
  if (spec.tight_memory) {
    // The pinned working set of the in-flight responses exceeds the pool,
    // and a 4-page block is more than an emergency sweep can scrape out of
    // the request/header free lists once every resident block is pinned —
    // so miss-path staging genuinely fails and the degraded copy path must
    // carry real traffic (2-page blocks self-heal off that free-list float
    // forever; this is the same sizing the serve tests pin down).
    cfg.host.machine.phys_frames = 256;
    cfg.host.pdu_size = 32 * 1024;
    cfg.cache.block_bytes = 4 * kPageSize;
    cfg.cache.capacity_blocks = 512;  // memory, not capacity, is the limit
    cfg.attach_pressure = true;
  }
  ServeWorld world(cfg);

  // Provenance and latency sampling ride every row (host-side observers:
  // attaching them never moves a simulated timestamp). Journeys live on the
  // server machine, where the sendfile-style pins and cross-domain block
  // transfers happen. The traced row adds the victim client's timeline.
  RunCapture capture("server", spec.export_trace);
  capture.Watch(world.server().machine,
                {.trace = true, .journeys = true, .metrics = true,
                 .conservation = true});
  capture.Watch(world.client(0).machine, {.trace = true});
  world.EnableLatency();

  // Fault events interleave with the run's own events on the same loop.
  // Absolute times sit mid-schedule in both full and smoke mode.
  const SimTime mid =
      spec.workload.requests / 2 * spec.workload.interarrival_ns;
  switch (spec.fault) {
    case RowSpec::Fault::kNone:
      break;
    case RowSpec::Fault::kLinkFlap: {
      // Condition-based, not wall-clock: wire events ride the server's
      // miss-inflated machine clock, so a fixed time window can slide right
      // past all of them. Instead the link goes dark while the middle tenth
      // of the request completions is in flight — guaranteed to overlap
      // live downloads in any mode.
      const LinkId link = world.client_link(0);
      const std::uint64_t dark_at = spec.workload.requests / 4;
      const std::uint64_t restore_at = spec.workload.requests * 7 / 20;
      auto dark = std::make_shared<bool>(false);
      auto tick = std::make_shared<std::function<void()>>();
      // The watcher captures itself weakly (a strong self-capture would be
      // a shared_ptr cycle and leak); each scheduled hop holds the strong
      // reference that keeps the chain alive until the flap ends.
      std::weak_ptr<std::function<void()>> weak_tick = tick;
      *tick = [&world, link, dark_at, restore_at, dark, weak_tick] {
        auto self = weak_tick.lock();
        const std::uint64_t done = world.file_server().completed_requests();
        if (!*dark && done >= dark_at) {
          *dark = true;
          Trace& t = world.server().machine.trace();
          if (t.enabled(TraceCategory::kPhase)) {
            t.Marker(t.Intern("fault/flap/client0"));
          }
          world.topo().link(link).set_drop_percent(100);
        } else if (*dark && done >= restore_at) {
          world.topo().link(link).set_drop_percent(0);
          return;  // flap over; stop watching
        }
        world.loop().Schedule(world.loop().Now() + kMillisecond, "flap-watch",
                              [self] { (*self)(); });
      };
      world.loop().Schedule(0, "flap-watch", [tick] { (*tick)(); });
      break;
    }
    case RowSpec::Fault::kClientChurn: {
      // Client 0's app domain dies mid-download and its link flaps dark:
      // every flow on it fails; the abort notices must still release every
      // pin the server held for them. The teardown runs on client 0, so the
      // fault wakes that host.
      const LinkId link = world.client_link(0);
      SimHost& victim = world.client(0);
      ScheduleOn(world.loop(), victim.machine, 0, mid, "fault/churn",
                 [&world, &victim, link] {
                   Trace& t = world.server().machine.trace();
                   if (t.enabled(TraceCategory::kPhase)) {
                     t.Marker(t.Intern("fault/churn/client0"));
                   }
                   victim.machine.DestroyDomain(victim.sink->domain()->id());
                   world.topo().link(link).set_drop_percent(100);
                 });
      world.loop().Schedule(mid + 20 * kMillisecond, "fault/churn-restore",
                            [&world, link] {
                              world.topo().link(link).set_drop_percent(0);
                            });
      break;
    }
  }

  const std::vector<ServeRequestSpec> schedule =
      BuildSchedule(spec.workload, cfg.clients, cfg.cache.block_bytes);
  RowResult r;
  r.stats = world.Run(schedule);

  // Hard checks, every row: §3.3 + pins, conservation, the zero-copy claim.
  AuditWorld(world, spec.variant);
  r.attribution_json = TimeAttributionJson(world.server().machine);

  // Journey reconciliation next to the §3.3 audit: every ended journey must
  // close with kFree/kAbort and balance its serve pins. Cache-resident
  // blocks and the staging fbuf legitimately stay open at quiescence, so
  // open journeys are not an error here — unbalanced or badly-ended ones
  // are, as is overflowing the journey cap.
  const JourneyVerdict verdict = capture.Journeys(/*allow_open=*/true);
  if (!verdict.ok) {
    std::fprintf(stderr, "server[%s]: journey verdict failed\n",
                 spec.variant.c_str());
    std::abort();
  }
  r.journeys = verdict.journeys;
  r.aborted_journeys = verdict.aborted;
  r.latency_json = world.latency().ToJson();
  const std::vector<SimTime>& wire = world.latency().wire;
  r.min_wire = wire.empty() ? 0 : *std::min_element(wire.begin(), wire.end());
  const std::vector<SimTime>& pins = world.latency().pin_hold;
  r.min_pin_hold =
      pins.empty() ? 0 : *std::min_element(pins.begin(), pins.end());

  r.server_bytes_copied = world.server().machine.stats().bytes_copied;
  if (!spec.expect_copies && r.server_bytes_copied != 0) {
    std::fprintf(stderr,
                 "server[%s]: zero-copy violated: %llu bytes copied on the "
                 "server\n",
                 spec.variant.c_str(),
                 static_cast<unsigned long long>(r.server_bytes_copied));
    std::abort();
  }
  if (spec.expect_copies &&
      (r.server_bytes_copied == 0 || r.stats.degraded_blocks == 0)) {
    std::fprintf(stderr,
                 "server[%s]: expected the degraded copy path to carry "
                 "traffic (copied=%llu, degraded=%llu)\n",
                 spec.variant.c_str(),
                 static_cast<unsigned long long>(r.server_bytes_copied),
                 static_cast<unsigned long long>(r.stats.degraded_blocks));
    std::abort();
  }
  if (r.stats.completed == 0) {
    std::fprintf(stderr, "server[%s]: no request ever completed\n",
                 spec.variant.c_str());
    std::abort();
  }

  std::vector<SimTime> lat = r.stats.latencies;
  std::sort(lat.begin(), lat.end());
  r.p50 = LatencyDecomposition::Quantile(lat, 0.5);
  r.p99 = LatencyDecomposition::Quantile(lat, 0.99);
  r.p999 = LatencyDecomposition::Quantile(lat, 0.999);
  r.cache_evictions = world.cache().evictions();
  r.pin_blocked_evictions = world.cache().pin_blocked_evictions();

  if (spec.export_trace) {
    // The acceptance flow: the exported trace must carry at least one
    // complete cross-domain journey — allocated, transferred across domains,
    // pinned for the flight, and finally freed — or the provenance story is
    // broken even if reconciliation balances.
    bool complete_flow = false;
    for (const Journey& j : capture.tracker(world.server().machine).journeys()) {
      if (!j.ended || j.aborted || j.pins == 0) {
        continue;
      }
      bool transferred = false;
      for (const LifecycleHop& h : j.hops) {
        transferred = transferred || h.kind == HopKind::kTransfer ||
                      h.kind == HopKind::kRingDeliver;
      }
      if (transferred) {
        complete_flow = true;
        break;
      }
    }
    if (!complete_flow) {
      std::fprintf(stderr,
                   "server[%s]: no complete alloc->transfer->pin->free "
                   "journey in the traced run\n",
                   spec.variant.c_str());
      std::abort();
    }
    capture.WriteTrace();
  }
  return r;
}

void Report(JsonReport& report, Json::Object& lat_section, const RowSpec& spec,
            const RowResult& r) {
  std::printf("%-14s %8llu %9llu %7llu %7llu %9.3f %9.1f %9.1f %10.1f %8.1f\n",
              spec.variant.c_str(),
              static_cast<unsigned long long>(r.stats.requests),
              static_cast<unsigned long long>(r.stats.completed),
              static_cast<unsigned long long>(r.stats.failed),
              static_cast<unsigned long long>(r.stats.degraded_blocks),
              r.stats.hit_ratio, r.p50 / 1e6, r.p99 / 1e6, r.p999 / 1e6,
              r.stats.goodput_mbps);
  report.BeginRow()
      .Field("variant", spec.variant)
      .Field("zipf_s", static_cast<double>(spec.workload.zipf_quarters) / 4.0)
      .Field("clients", static_cast<double>(spec.clients))
      .Field("requests", static_cast<double>(r.stats.requests))
      .Field("completed", static_cast<double>(r.stats.completed))
      .Field("truncated", static_cast<double>(r.stats.truncated))
      .Field("failed", static_cast<double>(r.stats.failed))
      .Field("parks", static_cast<double>(r.stats.parks))
      .Field("served_blocks", static_cast<double>(r.stats.served_blocks))
      .Field("hit_ratio", r.stats.hit_ratio)
      .Field("degraded_blocks", static_cast<double>(r.stats.degraded_blocks))
      .Field("pdus_dropped", static_cast<double>(r.stats.pdus_dropped))
      .Field("discarded_pdus", static_cast<double>(r.stats.discarded_pdus))
      .Field("delivered_bytes", static_cast<double>(r.stats.delivered_bytes))
      .Field("goodput_mbps", r.stats.goodput_mbps)
      .Field("p50_ms", r.p50 / 1e6)
      .Field("p99_ms", r.p99 / 1e6)
      .Field("p999_ms", r.p999 / 1e6)
      .Field("server_bytes_copied", static_cast<double>(r.server_bytes_copied))
      .Field("cache_evictions", static_cast<double>(r.cache_evictions))
      .Field("pin_blocked_evictions",
             static_cast<double>(r.pin_blocked_evictions))
      .Field("journeys", static_cast<double>(r.journeys))
      .Field("aborted_journeys", static_cast<double>(r.aborted_journeys));
  lat_section.emplace_back(spec.variant, r.latency_json);
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    }
  }

  WorkloadConfig base;
  base.requests = g_smoke ? 200 : 8000;
  base.files = g_smoke ? 64 : 400;
  const std::size_t clients = g_smoke ? 8 : 16;

  PrintHeader("File server macro-workload (Zipf popularity, Pareto sizes)");
  std::printf("%-14s %8s %9s %7s %7s %9s %9s %9s %10s %8s\n", "variant",
              "requests", "completed", "failed", "degr", "hit", "p50-ms",
              "p99-ms", "p999-ms", "Mbps");

  JsonReport report("server");
  Json attribution_json;
  Json::Object lat_section;  // {"<variant>": {slices...}, ...}

  // Popularity sweep: the hit ratio (and with it latency and goodput) must
  // ride the Zipf exponent — steeper popularity concentrates the working
  // set into the cache.
  double prev_hit = -1.0;
  bool hit_monotone = true;
  for (const unsigned q : {3u, 4u, 5u}) {
    RowSpec spec;
    spec.variant = "zipf-s" + std::to_string(q * 25 / 100) + "." +
                   std::to_string(q * 25 % 100);
    spec.workload = base;
    spec.workload.zipf_quarters = q;
    spec.clients = clients;
    const RowResult r = RunRow(spec);
    Report(report, lat_section, spec, r);
    hit_monotone = hit_monotone && r.stats.hit_ratio > prev_hit;
    prev_hit = r.stats.hit_ratio;
    if (q == 4) {
      attribution_json = r.attribution_json;
    }
  }
  if (!hit_monotone) {
    std::fprintf(stderr,
                 "server: hit ratio failed to rise with the Zipf exponent\n");
    std::abort();
  }

  {
    RowSpec spec;
    spec.variant = "rings";
    spec.workload = base;
    spec.clients = clients;
    spec.use_rings = true;
    // Ring drains ride the server's clock, which cold-miss disk time pushes
    // far ahead of the arrival timeline (seconds, at the full request
    // count); the default watchdog horizon would fail flows that are merely
    // queued behind that, not wedged.
    spec.stall_horizon = (g_smoke ? 2000 : 30000) * kMillisecond;
    const RowResult r = RunRow(spec);
    Report(report, lat_section, spec, r);
    if (r.stats.failed != 0) {
      std::fprintf(stderr, "server[rings]: %llu flows failed with no fault\n",
                   static_cast<unsigned long long>(r.stats.failed));
      std::abort();
    }
  }
  {
    RowSpec spec;
    spec.variant = "pressure";
    spec.workload = base;
    spec.workload.requests = g_smoke ? 100 : 4000;
    // A wide file set keeps concurrent flows from sharing (and co-pinning)
    // the same hot blocks, so the pinned set is genuinely larger than the
    // tight pool.
    spec.workload.files = 512;
    spec.clients = clients;
    spec.max_inflight = 128;
    spec.tight_memory = true;
    spec.expect_copies = true;
    Report(report, lat_section, spec, RunRow(spec));
  }
  {
    RowSpec spec;
    spec.variant = "link-flap";
    spec.workload = base;
    spec.workload.requests = g_smoke ? 200 : 4000;
    spec.clients = clients;
    spec.fault = RowSpec::Fault::kLinkFlap;
    const RowResult r = RunRow(spec);
    Report(report, lat_section, spec, r);
    if (r.stats.pdus_dropped == 0) {
      std::fprintf(stderr, "server[link-flap]: the flap dropped nothing\n");
      std::abort();
    }
  }
  {
    RowSpec spec;
    spec.variant = "client-churn";
    spec.workload = base;
    spec.workload.requests = g_smoke ? 200 : 4000;
    spec.clients = clients;
    spec.fault = RowSpec::Fault::kClientChurn;
    spec.export_trace = true;
    const RowResult r = RunRow(spec);
    Report(report, lat_section, spec, r);
    if (r.stats.failed == 0) {
      std::fprintf(stderr, "server[client-churn]: no flow failed\n");
      std::abort();
    }
  }
  {
    // Below saturation: one-block requests arrive 8 ms apart, slower than
    // the server serves them, so none queues. A request still cannot
    // complete before its response crossed the network, so no latency may
    // undercut the row's quickest wire sample; nor can a block be unpinned
    // before its PDU crossed the wire, so no pin_hold sample may either.
    // That bound holds here because this row parks nothing; in the rings
    // row a serve that failed and parked legitimately records a short pin.
    RowSpec spec;
    spec.variant = "open-loop";
    spec.workload = base;
    spec.workload.requests = 200;
    spec.workload.max_blocks = 1;
    spec.workload.interarrival_ns = 8 * kMillisecond;
    spec.clients = 4;
    const RowResult r = RunRow(spec);
    Report(report, lat_section, spec, r);
    const SimTime fastest =
        *std::min_element(r.stats.latencies.begin(), r.stats.latencies.end());
    if (fastest < r.min_wire) {
      std::fprintf(stderr,
                   "server[open-loop]: a request completed in %llu ns, under "
                   "the quickest wire time %llu ns\n",
                   static_cast<unsigned long long>(fastest),
                   static_cast<unsigned long long>(r.min_wire));
      std::abort();
    }
    if (r.min_pin_hold < r.min_wire) {
      std::fprintf(stderr,
                   "server[open-loop]: a block was pinned for %llu ns, under "
                   "the quickest wire time %llu ns\n",
                   static_cast<unsigned long long>(r.min_pin_hold),
                   static_cast<unsigned long long>(r.min_wire));
      std::abort();
    }
  }

  std::printf(
      "\nshape: hits are sendfile-style references (server bytes_copied is\n"
      "hard-checked zero outside the pressure row); steeper Zipf exponents\n"
      "concentrate the working set and lift the hit ratio; the pressure row\n"
      "serves real traffic through the degraded copy path; faults fail flows\n"
      "without leaking a single pin or frame (§3.3 audit on every row).\n");

  report.Section("time_attribution", std::move(attribution_json));
  report.Section("latency_decomposition", std::move(lat_section));
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main(int argc, char** argv) { return fbufs::bench::Main(argc, argv); }
