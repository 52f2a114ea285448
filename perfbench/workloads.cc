#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/auditor.h"
#include "src/fault/incast_world.h"
#include "src/obs/latency.h"
#include "src/obs/lifecycle.h"
#include "src/serve/serve_world.h"
#include "src/sim/rng.h"
#include "src/topo/testbed.h"

namespace perfbench {
namespace {

using fbufs::CostDomain;
using fbufs::SimTime;

// Journey cap for every lifecycle tracker: well above any iteration's
// allocation count, so reconciliation covers every journey (dropped == 0 is
// checked).
constexpr std::size_t kJourneyCap = std::size_t{1} << 18;

// The layers whose simulated time the per-layer section reports.
constexpr CostDomain kReportedLayers[] = {
    CostDomain::kVm,    CostDomain::kFbuf,  CostDomain::kIpc,
    CostDomain::kMsg,   CostDomain::kProto, CostDomain::kNet,
    CostDomain::kCache, CostDomain::kApp,   CostDomain::kDispatch,
    CostDomain::kWait,
};

double Ms(SimTime ns) { return static_cast<double>(ns) / 1e6; }

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// Nearest-rank quantile in ms (the simulator's LatencyDecomposition rule).
double QuantileMs(std::vector<SimTime> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return Ms(fbufs::LatencyDecomposition::Quantile(samples, q));
}

// Latency metrics every workload reports: p50, p99 and the sample count.
void AddLatency(Iteration& it, double p50_ms, double p99_ms, std::size_t samples) {
  it.sim.emplace_back("sim_latency_p50_ms", p50_ms);
  it.sim.emplace_back("sim_latency_p99_ms", p99_ms);
  it.sim.emplace_back("obs.latency_samples", static_cast<double>(samples));
}

void AddLatency(Iteration& it, const std::vector<SimTime>& samples) {
  AddLatency(it, QuantileMs(samples, 0.5), QuantileMs(samples, 0.99),
             samples.size());
}

void Fail(Iteration& it, const std::string& why) {
  it.failure += (it.failure.empty() ? "" : "; ") + why;
}

// Per-layer simulated time and operation counts, summed over machines.
class MachineTotals {
 public:
  void Add(Iteration& it, fbufs::Machine& m) {
    for (std::size_t i = 0; i < std::size(kReportedLayers); ++i) {
      layer_ns_[i] += m.attribution().ByLayer(kReportedLayers[i]);
    }
    const fbufs::SimStats& s = m.stats();
    stats_.bytes_copied += s.bytes_copied;
    stats_.tlb_misses += s.tlb_misses;
    stats_.page_faults += s.page_faults;
    stats_.fbuf_allocs += s.fbuf_allocs;
    stats_.fbuf_cache_hits += s.fbuf_cache_hits;
    stats_.ipc_calls += s.ipc_calls;
    it.machine_frames.push_back(m.pmem().total_frames());
  }

  void Emit(Iteration& it) const {
    for (std::size_t i = 0; i < std::size(kReportedLayers); ++i) {
      it.sim.emplace_back(
          std::string(fbufs::CostDomainName(kReportedLayers[i])) + ".sim_ns",
          static_cast<double>(layer_ns_[i]));
    }
    it.sim.emplace_back("vm.bytes_copied", static_cast<double>(stats_.bytes_copied));
    it.sim.emplace_back("vm.tlb_misses", static_cast<double>(stats_.tlb_misses));
    it.sim.emplace_back("vm.page_faults", static_cast<double>(stats_.page_faults));
    it.sim.emplace_back("fbuf.cache_hit_ratio",
                        Share(stats_.fbuf_cache_hits, stats_.fbuf_allocs));
    it.sim.emplace_back("ipc.calls", static_cast<double>(stats_.ipc_calls));
  }

 private:
  SimTime layer_ns_[std::size(kReportedLayers)] = {};
  fbufs::SimStats stats_;
};

// §3.3 audit of one host, then attribution conservation (TimeAttributionJson
// aborts the process on a hole, so a violated run never reports metrics).
void AuditHost(Iteration& it, const std::string& name, fbufs::Machine& m,
               const fbufs::FbufSystem& fsys) {
  const fbufs::HostAuditResult r =
      fbufs::InvariantAuditor::AuditHost(name, m, fsys);
  if (!r.passed) {
    Fail(it, "§3.3 audit failed on " + name + " (leaked=" +
                 std::to_string(r.leaked_frames) + " rc-mismatch=" +
                 std::to_string(r.refcount_mismatches) + " dangling=" +
                 std::to_string(r.dangling_mappings) + " freelist=" +
                 std::to_string(r.free_list_errors) + ")");
  }
  fbufs::bench::TimeAttributionJson(m);
}

// Fbuf provenance on one machine for one iteration: attaches a
// LifecycleTracker when |on| (the warmup iteration; it is a host-side
// observer, so the timed iterations run without it) and detaches it before
// the world's teardown frees fbufs.
class Provenance {
 public:
  Provenance(fbufs::Machine& m, bool on) : m_(m) {
    if (on) {
      tracker_ = std::make_unique<fbufs::LifecycleTracker>(&m, kJourneyCap);
      m_.AttachLifecycle(tracker_.get());
    }
  }
  ~Provenance() { m_.AttachLifecycle(nullptr); }
  Provenance(const Provenance&) = delete;
  Provenance& operator=(const Provenance&) = delete;

  // Journey reconciliation: every ended journey closes kFree/kAbort with its
  // pins balanced, nothing is dropped past the cap, and (when |allow_open| is
  // false) nothing is left open at quiescence.
  void Reconcile(Iteration& it, const std::string& name, bool allow_open) const {
    if (tracker_ == nullptr) {
      return;
    }
    const fbufs::LifecycleTracker& t = *tracker_;
    const fbufs::LifecycleTracker::Reconciliation rec = t.Reconcile();
    if (!rec.passed() || rec.dropped != 0 || t.journeys().empty() ||
        (!allow_open && rec.open != 0)) {
      Fail(it, "journey reconciliation failed on " + name + " (journeys=" +
                   std::to_string(t.journeys().size()) +
                   " open=" + std::to_string(rec.open) +
                   " pin_imbalance=" + std::to_string(rec.pin_imbalance) +
                   " bad_end=" + std::to_string(rec.bad_end) +
                   " dropped=" + std::to_string(rec.dropped) + ")");
    }
  }

 private:
  fbufs::Machine& m_;
  std::unique_ptr<fbufs::LifecycleTracker> tracker_;
};

// Metrics only some workloads have; the others report zero so every run
// emits the same per-layer set.
void AddServeOnlyZeros(Iteration& it) {
  for (const char* name :
       {"cache.hit_ratio", "cache.evictions", "serve.pin_hold_p99_ms",
        "serve.wire_p99_ms", "serve.dispatch_p99_ms"}) {
    it.sim.emplace_back(name, 0.0);
  }
}

void AddIncastOnlyZeros(Iteration& it) {
  for (const char* name :
       {"proto.retransmit_share", "topo.switch_drops", "topo.ecn_marks"}) {
    it.sim.emplace_back(name, 0.0);
  }
}

void AddCells(Iteration& it) {
  std::uint64_t wire_bytes = 0;
  for (const PduGroup& g : it.cell_pdus) {
    wire_bytes += g.wire_bytes;
  }
  // Σ⌈(len+8)/48⌉ over the PDUs: the wire carries whole cells.
  it.sim.emplace_back("net.cells", static_cast<double>(
                                       wire_bytes / fbufs::AtmCell::kPayloadBytes));
}

// --- stream --------------------------------------------------------------------

struct StreamBatch {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

constexpr std::size_t kStreamBatches = 200;
constexpr std::uint64_t kStreamBatchMessages = 5;
// Unmeasured messages ahead of each batch: they fill the pipeline and the
// fbuf caches for the new size, so latency and goodput are steady state.
constexpr std::uint64_t kStreamBatchWarmup = 1;
constexpr std::uint64_t kStreamMinPages = 1;   // 4 KB
constexpr std::uint64_t kStreamMaxPages = 64;  // 256 KB

// Message sizes, log-uniform over [4 KB, 256 KB] in whole pages, stratified:
// batch j draws from the j-th of kStreamBatches equal slices of log2(size),
// so every seed spans the whole Figure 5 range and only the sizes inside each
// slice (and the batch order) move with the seed.
std::vector<StreamBatch> StreamInputs(std::uint64_t seed) {
  fbufs::Rng rng(seed ^ 0x57ea3b1d5eedull);
  const double span = std::log2(static_cast<double>(kStreamMaxPages) /
                                static_cast<double>(kStreamMinPages));
  std::vector<StreamBatch> batches;
  for (std::size_t j = 0; j < kStreamBatches; ++j) {
    const double u01 =
        static_cast<double>(rng.Next() >> 11) * (1.0 / 9007199254740992.0);
    const double u = (static_cast<double>(j) + u01) / kStreamBatches;
    const double pages = static_cast<double>(kStreamMinPages) * std::exp2(span * u);
    const std::uint64_t whole = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(pages)), kStreamMinPages,
        kStreamMaxPages);
    batches.push_back(StreamBatch{whole * fbufs::kPageSize, kStreamBatchMessages});
  }
  for (std::size_t i = batches.size() - 1; i > 0; --i) {
    std::swap(batches[i], batches[rng.Below(i + 1)]);
  }
  return batches;
}

// Message latency from the loop's event trace: the dispatch time of the
// sender step that sent message m ("send/0/m"; a step that found the window
// closed is re-dispatched, the last one sends) to its acknowledgement
// ("ack/0/m"). Entries [begin, end) belong to one RunFlows call; its first
// |warmup| messages are not sampled.
void StreamLatencies(const std::vector<fbufs::EventLoop::TraceEntry>& trace,
                     std::size_t begin, std::size_t end, std::uint64_t warmup,
                     std::uint64_t messages, std::vector<SimTime>* out) {
  static const std::string kSend = "send/0/";
  static const std::string kAck = "ack/0/";
  std::vector<SimTime> sent(warmup + messages, 0);
  for (std::size_t e = begin; e < end; ++e) {
    const std::string& label = trace[e].label;
    if (label.compare(0, kSend.size(), kSend) == 0) {
      sent[std::stoull(label.substr(kSend.size()))] = trace[e].time;
    } else if (label.compare(0, kAck.size(), kAck) == 0) {
      const std::uint64_t m = std::stoull(label.substr(kAck.size()));
      if (m >= warmup) {
        out->push_back(trace[e].time - sent[m]);
      }
    }
  }
}

Iteration RunStream(const std::vector<StreamBatch>& batches, Tracer& tr,
                    bool track_lifecycle) {
  Iteration it;
  fbufs::TestbedConfig cfg;
  cfg.placement = fbufs::StackPlacement::kUserKernel;  // user-user
  cfg.pdu_size = 16 * 1024;
  cfg.cached = true;
  cfg.volatile_fbufs = true;
  std::unique_ptr<fbufs::Testbed> tb;
  it.setup_s = tr.Time("setup/Testbed",
                       [&] { tb = std::make_unique<fbufs::Testbed>(cfg); });
  fbufs::Machine& tx = tb->sender().machine;
  fbufs::Machine& rx = tb->receiver().machine;
  const Provenance tx_life(tx, track_lifecycle);
  const Provenance rx_life(rx, track_lifecycle);
  tb->loop().set_record_trace(true);

  fbufs::NullModemLink& link = tb->link();
  std::vector<fbufs::MultiResult> results;
  std::vector<std::size_t> trace_ends;
  it.run_s = tr.Time("run/Testbed::RunFlows", [&] {
    for (const StreamBatch& b : batches) {
      const std::uint64_t pdus0 = link.pdus_carried();
      const std::uint64_t bytes0 = link.bytes_carried();
      results.push_back(tb->RunFlows(
          {fbufs::FlowTraffic{b.messages, b.bytes, kStreamBatchWarmup}}));
      it.cell_pdus.push_back(PduGroup{link.pdus_carried() - pdus0,
                                      link.bytes_carried() - bytes0});
      trace_ends.push_back(tb->loop().trace().size());
    }
  });
  it.events = tb->loop().events_dispatched();
  it.wire_pdus = link.pdus_carried();

  std::uint64_t delivered = 0;
  SimTime elapsed = 0;
  std::vector<SimTime> latencies;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const fbufs::FlowResult& fr = results[b].flows[0];
    it.attempted += batches[b].messages;
    const std::uint64_t total = kStreamBatchWarmup + batches[b].messages;
    it.failed += fr.failed ? batches[b].messages
                           : total - std::min(total, fr.completed_messages);
    delivered += fr.delivered_bytes;
    elapsed += fr.elapsed_ns;
    StreamLatencies(tb->loop().trace(), b == 0 ? 0 : trace_ends[b - 1],
                    trace_ends[b], kStreamBatchWarmup, batches[b].messages,
                    &latencies);
  }
  it.sim.emplace_back("sim_goodput_mbps",
                      elapsed == 0 ? 0.0
                                   : static_cast<double>(delivered) * 8.0 *
                                         1000.0 / static_cast<double>(elapsed));
  AddLatency(it, latencies);
  if (latencies.size() != it.attempted) {
    Fail(it, "stream: " + std::to_string(latencies.size()) +
                 " latency samples for " + std::to_string(it.attempted) +
                 " messages");
  }
  MachineTotals totals;
  totals.Add(it, tx);
  totals.Add(it, rx);
  totals.Emit(it);
  AddServeOnlyZeros(it);
  AddIncastOnlyZeros(it);
  it.sim.emplace_back("pressure.parks", 0.0);
  AddCells(it);
  it.sim.emplace_back("sim.events", static_cast<double>(it.events));

  it.audit_s = tr.Time("audit/InvariantAuditor::AuditHost", [&] {
    AuditHost(it, "sender", tx, tb->sender().fsys);
    AuditHost(it, "receiver", rx, tb->receiver().fsys);
  });
  it.reconcile_s = tr.Time("reconcile/LifecycleTracker::Reconcile", [&] {
    // Cached fbufs legitimately stay allocated on their free lists.
    tx_life.Reconcile(it, "sender", /*allow_open=*/true);
    rx_life.Reconcile(it, "receiver", /*allow_open=*/true);
  });
  if (it.failed != 0) {
    Fail(it, "stream: " + std::to_string(it.failed) + " messages undelivered");
  }
  return it;
}

// --- serve ---------------------------------------------------------------------

constexpr std::size_t kServeClients = 16;
constexpr std::uint64_t kServeRequests = 2000;
constexpr std::uint32_t kServeFiles = 400;
constexpr std::uint32_t kServeMaxBlocks = 8;
constexpr std::uint64_t kServeBlockBytes = 8192;

// Zipf(s = 1) popularity over kServeFiles files and bounded-Pareto sizes
// (alpha ~ 1.33, 1..8 blocks), drawn with the repository's generators. The
// schedule is closed-loop: every request is due at time 0, and the world's
// admission window (max_inflight) issues the next one as each completes.
std::vector<fbufs::ServeRequestSpec> ServeInputs(std::uint64_t seed) {
  fbufs::bench::ZipfGenerator zipf(seed, kServeFiles, /*s_quarters=*/4);
  fbufs::bench::ParetoGenerator pareto(seed ^ 0x9e3779b97f4a7c15ull,
                                       kServeBlockBytes,
                                       kServeMaxBlocks * kServeBlockBytes, 3);
  fbufs::Rng pick(seed ^ 0xda7a5eedull);
  std::vector<fbufs::ServeRequestSpec> schedule;
  for (std::uint64_t i = 0; i < kServeRequests; ++i) {
    fbufs::ServeRequestSpec s;
    s.at = 0;
    s.client = static_cast<std::uint32_t>(pick.Below(kServeClients));
    s.file = static_cast<fbufs::FileId>(zipf.Next());
    s.blocks = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        kServeMaxBlocks,
        (pareto.Next() + kServeBlockBytes - 1) / kServeBlockBytes));
    schedule.push_back(s);
  }
  return schedule;
}

Iteration RunServe(const std::vector<fbufs::ServeRequestSpec>& schedule,
                   Tracer& tr, bool track_lifecycle) {
  Iteration it;
  fbufs::ServeWorldConfig cfg;
  cfg.clients = kServeClients;
  cfg.max_inflight = 64;
  cfg.cache.block_bytes = kServeBlockBytes;
  cfg.cache.disk_access_ns = 1 * fbufs::kMillisecond;
  cfg.cache.disk_mbps = 64;
  cfg.cache.capacity_blocks = 128;
  std::unique_ptr<fbufs::ServeWorld> w;
  it.setup_s = tr.Time("setup/ServeWorld",
                       [&] { w = std::make_unique<fbufs::ServeWorld>(cfg); });
  fbufs::Machine& server = w->server().machine;
  const Provenance life(server, track_lifecycle);
  w->EnableLatency();

  fbufs::ServeRunStats stats;
  it.run_s = tr.Time("run/ServeWorld::Run", [&] { stats = w->Run(schedule); });
  it.events = w->loop().events_dispatched();

  MachineTotals totals;
  totals.Add(it, server);
  for (std::size_t i = 0; i < w->client_count(); ++i) {
    fbufs::NullModemLink& link = w->topo().link(w->client_link(i)).wire_link();
    it.cell_pdus.push_back(PduGroup{link.pdus_carried(), link.bytes_carried()});
    it.wire_pdus += link.pdus_carried();
    totals.Add(it, w->client(i).machine);
  }
  it.attempted = schedule.size();
  it.failed = stats.failed + (schedule.size() - std::min<std::uint64_t>(
                                                    schedule.size(),
                                                    stats.completed + stats.failed));

  it.sim.emplace_back("sim_goodput_mbps", stats.goodput_mbps);
  AddLatency(it, stats.latencies);
  totals.Emit(it);
  const fbufs::LatencyDecomposition& lat = w->latency();
  it.sim.emplace_back("cache.hit_ratio", stats.hit_ratio);
  it.sim.emplace_back("cache.evictions",
                      static_cast<double>(w->cache().evictions()));
  it.sim.emplace_back("serve.pin_hold_p99_ms", QuantileMs(lat.pin_hold, 0.99));
  it.sim.emplace_back("serve.wire_p99_ms", QuantileMs(lat.wire, 0.99));
  it.sim.emplace_back("serve.dispatch_p99_ms", QuantileMs(lat.dispatch, 0.99));
  AddIncastOnlyZeros(it);
  it.sim.emplace_back("pressure.parks", static_cast<double>(stats.parks));
  AddCells(it);
  it.sim.emplace_back("sim.events", static_cast<double>(it.events));

  // Latency guard: no response can complete faster than one block crosses
  // its client link. A request reported faster than that was timed against
  // a clock that never advanced to its arrival (NOTES.md, "serve latency").
  const SimTime floor =
      w->topo().link(w->client_link(0)).wire_link().WireTime(kServeBlockBytes);
  const SimTime fastest =
      stats.latencies.empty()
          ? 0
          : *std::min_element(stats.latencies.begin(), stats.latencies.end());
  if (stats.latencies.empty() || fastest < floor) {
    Fail(it, "serve: a request completed in " + std::to_string(fastest) +
                 " ns, under one PDU's wire time (" + std::to_string(floor) +
                 " ns)");
  }

  it.audit_s = tr.Time("audit/InvariantAuditor::AuditHost", [&] {
    AuditHost(it, "server", server, w->server().fsys);
    for (std::size_t i = 0; i < w->client_count(); ++i) {
      AuditHost(it, "client" + std::to_string(i), w->client(i).machine,
                w->client(i).fsys);
    }
    if (w->file_server().inflight_requests() != 0 || w->cache().total_pins() != 0) {
      Fail(it, "serve: pins held after drain");
    }
    if (server.stats().bytes_copied != 0) {
      Fail(it, "serve: zero-copy violated, server copied " +
                   std::to_string(server.stats().bytes_copied) + " bytes");
    }
  });
  it.reconcile_s = tr.Time("reconcile/LifecycleTracker::Reconcile", [&] {
    // Cache-resident blocks stay open at quiescence.
    life.Reconcile(it, "server", /*allow_open=*/true);
  });
  if (it.failed != 0) {
    Fail(it, "serve: " + std::to_string(it.failed) + " requests failed");
  }
  return it;
}

// --- incast --------------------------------------------------------------------

constexpr std::uint32_t kIncastRacks = 2;
constexpr std::uint32_t kIncastSendersPerRack = 4;
constexpr int kIncastMessages = 200;  // per flow
constexpr std::uint64_t kIncastPduBytes = 8 * fbufs::kPageSize;
// Each iteration runs kIncastWorlds worlds, one after another, whose topology
// seeds come from the run's seed. With 1% loss on every ingress wire the
// topology seed decides which frames the wires drop (a loss-free fabric never
// consults it). The latency tail is quantized by whole retransmit timeouts,
// so one world's p99 jumps between RTO multiples from seed to seed; the
// reported p50/p99 are each world's own (1600 samples apiece), averaged over
// the worlds.
constexpr std::size_t kIncastWorlds = 16;
constexpr std::uint32_t kIncastIngressLossPercent = 1;

Iteration RunIncast(std::uint64_t seed, Tracer& tr, bool track_lifecycle) {
  Iteration it;
  // bench/incast's fixed-window point at fan-in 8: window 8 x 8 flows
  // overloads the 32-PDU core queue, just past the knee.
  fbufs::IncastWorldConfig cfg;
  cfg.kind = fbufs::TransportKind::kFixedWindow;
  cfg.racks = kIncastRacks;
  cfg.senders_per_rack = kIncastSendersPerRack;
  cfg.window = 8;
  cfg.switch_queue_pdus = 32;
  cfg.ecn_threshold_pdus = 0;
  fbufs::Rng topo_seeds(seed ^ 0x1ca5ca57ull);
  MachineTotals totals;
  SimTime elapsed = 0;
  std::uint64_t delivered = 0, retransmissions = 0, drops = 0, marks = 0, parks = 0;
  double p50_sum = 0, p99_sum = 0;
  std::size_t samples = 0;
  for (std::size_t r = 0; r < kIncastWorlds; ++r) {
    cfg.seed = topo_seeds.Next();
    std::unique_ptr<fbufs::IncastWorld> w;
    it.setup_s += tr.Time("setup/IncastWorld",
                          [&] { w = std::make_unique<fbufs::IncastWorld>(cfg); });
    for (std::size_t i = 0; i < w->flow_count(); ++i) {
      w->topo.link(w->flow(i).ingress).set_drop_percent(kIncastIngressLossPercent);
    }
    const Provenance life(w->machine, track_lifecycle);
    w->EnableLatency();

    it.run_s += tr.Time("run/IncastWorld", [&] {
      w->StartProducers(kIncastMessages, kIncastPduBytes);
      w->loop.Run();
    });

    it.events += w->loop.events_dispatched();
    elapsed += w->loop.Now();
    fbufs::LatencyDecomposition lat;
    for (std::size_t i = 0; i < w->flow_count(); ++i) {
      lat.Merge(w->flow(i).lat);
      it.wire_pdus += w->topo.link(w->flow(i).ingress).wire_link().pdus_carried();
    }
    // Push to ack: how long the sender pinned each message for retransmission.
    p50_sum += QuantileMs(lat.pin_hold, 0.5);
    p99_sum += QuantileMs(lat.pin_hold, 0.99);
    samples += lat.pin_hold.size();
    const std::uint64_t attempted =
        static_cast<std::uint64_t>(kIncastMessages) * w->flow_count();
    const std::uint64_t got = w->total_delivered();
    it.attempted += attempted;
    it.failed += attempted - std::min(attempted, got / kIncastPduBytes);
    delivered += got;
    retransmissions += w->total_retransmissions();
    drops += w->switch_drops();
    marks += w->ecn_marks();
    parks += w->total_parks();
    totals.Add(it, w->machine);

    it.audit_s += tr.Time("audit/InvariantAuditor::AuditHost", [&] {
      for (std::size_t i = 0; i < w->flow_count(); ++i) {
        fbufs::IncastWorld::Flow& f = w->flow(i);
        if (!fbufs::InvariantAuditor::AuditSwp(*f.sender, *f.receiver, w->machine)
                 .passed) {
          Fail(it, "incast: transport audit failed on flow " + std::to_string(i));
        }
      }
      AuditHost(it, "incast", w->machine, w->fsys);
    });
    it.reconcile_s += tr.Time("reconcile/LifecycleTracker::Reconcile", [&] {
      life.Reconcile(it, "incast", /*allow_open=*/false);
    });
    const bool drained = w->total_accepted() == attempted &&
                         got == attempted * kIncastPduBytes;
    if (!drained || w->any_producer_stalled() || w->any_producer_failed()) {
      Fail(it, "incast: run did not drain (accepted=" +
                   std::to_string(w->total_accepted()) +
                   " delivered=" + std::to_string(got) + ")");
    }
  }

  it.sim.emplace_back("sim_goodput_mbps",
                      elapsed == 0 ? 0.0
                                   : static_cast<double>(delivered) * 8.0 *
                                         1000.0 / static_cast<double>(elapsed));
  AddLatency(it, p50_sum / kIncastWorlds, p99_sum / kIncastWorlds, samples);
  totals.Emit(it);
  AddServeOnlyZeros(it);
  it.sim.emplace_back("proto.retransmit_share", Share(retransmissions, it.wire_pdus));
  it.sim.emplace_back("topo.switch_drops", static_cast<double>(drops));
  it.sim.emplace_back("topo.ecn_marks", static_cast<double>(marks));
  it.sim.emplace_back("pressure.parks", static_cast<double>(parks));
  AddCells(it);  // the incast fabric carries frames whole: no cells
  it.sim.emplace_back("sim.events", static_cast<double>(it.events));
  return it;
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "stream") {
    return [batches = StreamInputs(seed)](Tracer& tr, bool track_lifecycle) {
      return RunStream(batches, tr, track_lifecycle);
    };
  }
  if (name == "serve") {
    return [schedule = ServeInputs(seed)](Tracer& tr, bool track_lifecycle) {
      return RunServe(schedule, tr, track_lifecycle);
    };
  }
  if (name == "incast") {
    return [seed](Tracer& tr, bool track_lifecycle) {
      return RunIncast(seed, tr, track_lifecycle);
    };
  }
  return {};
}

}  // namespace perfbench
