// Incast congestion sweep: fan-in degree x congestion policy, on the
// rack-structured IncastWorld (R racks of S senders converging on one
// receiver through ToR uplinks and a core downlink with bounded queues).
//
// The sweep holds the fabric fixed and scales the fan-in past the point
// where the fixed-window transport's aggregate in-flight (window x flows)
// exceeds the bottleneck queue. Past that knee the classic collapse
// unfolds: tail drops punch holes in every window, go-back-all
// retransmission resends whole windows into the same full queue, and
// goodput falls even though the wire never idles. The credit transport
// sizes aggregate in-flight below the queue via receiver grants
// (PressureManager::CreditFor against fbuf-pool headroom), and the AIMD
// transport backs off on per-VCI ECN marks before the queue overflows —
// both cross the same knee within a fraction of their pre-knee goodput.
//
// The bench self-checks that shape (collapse for fixed-window, graceful
// degradation for credit and AIMD), full drainage, the per-conversation
// window/ledger audit, and the host §3.3 audit at every point, and exits
// nonzero when any check fails. Deterministic: the same build writes a
// byte-identical BENCH_incast.json and TRACE_incast.json on every run.
// --smoke trims the sweep to the two points the self-checks need.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/capture.h"
#include "src/fault/auditor.h"
#include "src/fault/incast_world.h"

namespace fbufs {
namespace bench {
namespace {

// 32 KB PDUs serialize in ~1.7 ms at the OC-3 line rate — several times the
// shared host CPU's ~0.6 ms per-PDU protocol cost, so the fabric (not the
// CPU) is the bottleneck and switch queues actually build.
constexpr std::uint64_t kPduBytes = 8 * kPageSize;

struct PointResult {
  TransportKind kind = TransportKind::kFixedWindow;
  std::uint32_t fanin = 0;
  double goodput_mbps = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t switch_drops = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t parks = 0;
  std::uint64_t accepted = 0;
  bool drained = false;
  bool stalled = false;
  bool failed = false;
  bool audit_passed = false;
  // Fbuf provenance: journeys recorded, and whether they reconciled (every
  // journey ends kFree/kAbort, every pin released, nothing left open).
  std::uint64_t journeys = 0;
  bool journeys_ok = false;
  Json latency_json;  // per-point LatencyDecomposition::ToJson()
};

IncastWorldConfig ConfigFor(TransportKind kind, std::uint32_t fanin) {
  IncastWorldConfig cfg;
  cfg.kind = kind;
  cfg.racks = 2;
  cfg.senders_per_rack = fanin / cfg.racks;
  // Fixed window and the AIMD cwnd cap. Queue, window, and fan-in place the
  // knee between 4 and 8 senders: at fan-in 4 the fixed-window aggregate
  // (4x8 PDUs) just fits the core queue; at 8 and 16 it overloads it 2-4x
  // continuously, so every RTO's go-back-all resends a mostly-received
  // window into a full queue and the duplicates steal bottleneck capacity
  // from new data — the sustained-waste half of the collapse, on top of the
  // synchronized-stall half. AIMD shares the cap but its ECN response keeps
  // it from probing that high; credit's aggregate (1 per flow) never
  // exceeds the queue at any swept fan-in.
  cfg.window = 8;
  // Mark when a flow's standing share of a switch queue exceeds two PDUs,
  // so AIMD converges below the drop point instead of probing into it.
  cfg.ecn_threshold_pdus = kind == TransportKind::kAimd ? 2 : 0;
  cfg.switch_queue_pdus = 32;
  return cfg;
}

PointResult RunPoint(TransportKind kind, std::uint32_t fanin, int messages,
                     Json* attr_json, bool export_trace) {
  PointResult r;
  r.kind = kind;
  r.fanin = fanin;

  const IncastWorldConfig cfg = ConfigFor(kind, fanin);
  IncastWorld w(cfg);
  // Provenance, metrics and latency decomposition ride every point: the
  // tracker, the registry and the per-flow sample vectors are pure host-side
  // observers, so attaching them never moves a simulated timestamp. The
  // traced point also records the host's timeline and the busy intervals of
  // the ToR uplinks and the core downlink.
  RunCapture capture("incast", export_trace);
  capture.Watch(w.machine, {.trace = true, .journeys = true, .metrics = true});
  for (std::uint32_t rk = 0; rk < cfg.racks; ++rk) {
    capture.Watch(*w.topo.switch_at(w.tor_node(rk)));
    capture.Watch(w.topo.switch_at(w.tor_node(rk))->port_resource(0));
  }
  capture.Watch(*w.topo.switch_at(w.core_node()));
  capture.Watch(w.topo.switch_at(w.core_node())->port_resource(0));
  w.EnableLatency();

  w.StartProducers(messages, kPduBytes);
  w.loop.Run();
  const SimTime elapsed = w.loop.Now();

  r.delivered = w.total_delivered();
  r.retransmissions = w.total_retransmissions();
  r.switch_drops = w.switch_drops();
  r.ecn_marks = w.ecn_marks();
  r.parks = w.total_parks();
  r.accepted = w.total_accepted();
  r.stalled = w.any_producer_stalled();
  r.failed = w.any_producer_failed();
  r.drained =
      r.accepted == static_cast<std::uint64_t>(messages) * w.flow_count() &&
      r.delivered == r.accepted * kPduBytes;
  if (elapsed > 0) {
    r.goodput_mbps = static_cast<double>(r.delivered) * 8.0 * 1000.0 /
                     static_cast<double>(elapsed);
  }

  // Per-conversation audit (window drained, stash empty, zero copies,
  // ledger empty) plus the host-wide §3.3 audit.
  bool audits = true;
  for (std::size_t i = 0; i < w.flow_count(); ++i) {
    IncastWorld::Flow& f = w.flow(i);
    audits = audits &&
             InvariantAuditor::AuditSwp(*f.sender, *f.receiver, w.machine).passed;
  }
  audits =
      audits && InvariantAuditor::AuditHost("incast", w.machine, w.fsys).passed;
  r.audit_passed = audits;

  // Journey reconciliation next to the §3.3 audit: a drained incast run must
  // close every journey (kFree), balance every retransmit pin, and leave
  // nothing open or dropped.
  const JourneyVerdict verdict = capture.Journeys(/*allow_open=*/false);
  r.journeys = verdict.journeys;
  r.journeys_ok = verdict.ok;

  // End-to-end latency decomposition, merged across the point's flows.
  LatencyDecomposition lat;
  for (std::size_t i = 0; i < w.flow_count(); ++i) {
    lat.Merge(w.flow(i).lat);
  }
  r.latency_json = lat.ToJson();

  if (attr_json != nullptr) {
    // Satellite slicing: one attribution bucket per conversation, claiming
    // its header and data paths (the cells already carry the path id).
    std::vector<std::pair<std::string, std::vector<AttrPathId>>> flows;
    for (std::size_t i = 0; i < w.flow_count(); ++i) {
      const IncastWorld::Flow& f = w.flow(i);
      flows.emplace_back("flow" + std::to_string(i),
                         std::vector<AttrPathId>{
                             static_cast<AttrPathId>(f.tx_hdr),
                             static_cast<AttrPathId>(f.rx_hdr),
                             static_cast<AttrPathId>(f.data)});
    }
    AttributionJsonOptions opts;
    opts.flows = &flows;
    *attr_json = TimeAttributionJson(w.machine, opts);
  }
  if (export_trace) {
    capture.WriteTrace();
  }
  return r;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  // Pre-knee and post-knee points are load-bearing (the self-checks compare
  // them); the interior points draw the curve in full mode.
  const std::vector<std::uint32_t> fanins =
      smoke ? std::vector<std::uint32_t>{2, 16}
            : std::vector<std::uint32_t>{2, 4, 8, 16};
  const int messages = smoke ? 10 : 40;
  const std::vector<TransportKind> kinds = {
      TransportKind::kFixedWindow, TransportKind::kCredit, TransportKind::kAimd};

  PrintHeader("Incast fan-in sweep (congestion policy x senders)");
  std::printf("%8s %6s %12s %8s %8s %7s %7s %7s\n", "kind", "fanin", "goodput",
              "retx", "drops", "marks", "parks", "audit");

  JsonReport json("incast");
  Json attr_json;
  Json::Object lat_section;  // {"<kind>_fanin<N>": {slices...}, ...}
  std::vector<std::vector<PointResult>> results(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (const std::uint32_t fanin : fanins) {
      // The trace snapshot: the fixed-window transport at the worst fan-in,
      // where the retransmission storm is visible. Attribution comes from
      // every point (the last written wins), conservation-checked each time.
      const bool trace = kinds[k] == TransportKind::kFixedWindow &&
                         fanin == fanins.back();
      const PointResult r =
          RunPoint(kinds[k], fanin, messages, &attr_json, trace);
      results[k].push_back(r);
      std::printf("%8s %6u %9.1f Mb %8llu %8llu %7llu %7llu %7s%s%s%s\n",
                  TransportKindName(r.kind), r.fanin, r.goodput_mbps,
                  static_cast<unsigned long long>(r.retransmissions),
                  static_cast<unsigned long long>(r.switch_drops),
                  static_cast<unsigned long long>(r.ecn_marks),
                  static_cast<unsigned long long>(r.parks),
                  r.audit_passed ? "clean" : "DIRTY",
                  r.drained ? "" : "  UNDRAINED",
                  r.stalled ? "  STALLED" : "", r.failed ? "  FAILED" : "");
      json.BeginRow()
          .Field("transport", TransportKindName(r.kind))
          .Field("fanin", static_cast<double>(r.fanin))
          .Field("goodput_mbps", r.goodput_mbps)
          .Field("delivered_bytes", static_cast<double>(r.delivered))
          .Field("retransmissions", static_cast<double>(r.retransmissions))
          .Field("switch_drops", static_cast<double>(r.switch_drops))
          .Field("ecn_marks", static_cast<double>(r.ecn_marks))
          .Field("backpressure_parks", static_cast<double>(r.parks))
          .Field("drained", r.drained ? 1.0 : 0.0)
          .Field("audit_passed", r.audit_passed ? 1.0 : 0.0)
          .Field("journeys", static_cast<double>(r.journeys))
          .Field("journeys_ok", r.journeys_ok ? 1.0 : 0.0);
      lat_section.emplace_back(
          std::string(TransportKindName(r.kind)) + "_fanin" + std::to_string(r.fanin),
          r.latency_json);
    }
  }
  json.Section("time_attribution", std::move(attr_json));
  json.Section("latency_decomposition", std::move(lat_section));
  json.Write();

  // --- Self-checks: collapse vs graceful degradation --------------------------
  bool ok = true;
  auto fail = [&ok](const std::string& why) {
    std::printf("SELF-CHECK FAILED: %s\n", why.c_str());
    ok = false;
  };

  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (const PointResult& r : results[k]) {
      const std::string at = std::string(TransportKindName(r.kind)) +
                             " fanin=" + std::to_string(r.fanin);
      if (!r.drained || r.stalled || r.failed) {
        fail("point did not drain cleanly (" + at + ")");
      }
      if (!r.audit_passed) {
        fail("post-run audit failed (" + at + ")");
      }
      if (!r.journeys_ok) {
        fail("journey reconciliation failed (" + at + ")");
      }
      if (r.goodput_mbps <= 0) {
        fail("zero goodput (" + at + ")");
      }
    }
  }

  // Pre-knee baseline: the smallest fan-in (aggregate in-flight far below
  // the queue for every policy). Post-knee: the largest.
  const PointResult& swp_pre = results[0].front();
  const PointResult& swp_post = results[0].back();
  const PointResult& credit_pre = results[1].front();
  const PointResult& credit_post = results[1].back();
  const PointResult& aimd_pre = results[2].front();
  const PointResult& aimd_post = results[2].back();

  // Fixed-window: the storm must be real (drops, whole-window retransmits)
  // and goodput must collapse well below the pre-knee level.
  if (swp_post.switch_drops == 0) {
    fail("fixed-window never overflowed a switch queue past the knee");
  }
  if (swp_post.retransmissions == 0) {
    fail("fixed-window never retransmitted past the knee");
  }
  if (swp_post.goodput_mbps > swp_pre.goodput_mbps * 0.7) {
    fail("fixed-window did not collapse: " +
         std::to_string(swp_post.goodput_mbps) + " vs pre-knee " +
         std::to_string(swp_pre.goodput_mbps));
  }
  // Credit and AIMD: within 20% of their own pre-knee goodput at the same
  // post-knee fan-in where fixed-window collapsed.
  if (credit_post.goodput_mbps < credit_pre.goodput_mbps * 0.8) {
    fail("credit degraded past 20%: " + std::to_string(credit_post.goodput_mbps) +
         " vs pre-knee " + std::to_string(credit_pre.goodput_mbps));
  }
  if (aimd_post.goodput_mbps < aimd_pre.goodput_mbps * 0.8) {
    fail("aimd degraded past 20%: " + std::to_string(aimd_post.goodput_mbps) +
         " vs pre-knee " + std::to_string(aimd_pre.goodput_mbps));
  }
  // The AIMD signal path must actually fire post-knee: marks seen at the
  // switch, echoed, and answered with multiplicative decreases.
  if (aimd_post.ecn_marks == 0) {
    fail("aimd post-knee run never raised an ECN mark");
  }

  std::printf("\n%s\n", ok ? "incast sweep self-checks passed"
                           : "INCAST SWEEP SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main(int argc, char** argv) { return fbufs::bench::Main(argc, argv); }
