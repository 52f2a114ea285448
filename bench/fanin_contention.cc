// Fan-in contention study on the topology fabric: K senders push through
// one ATM switch output port onto a single trunk into one receiver, sweeping
// sender count and IP PDU size.
//
// Each sender sits on its own 80 Mbps uplink, the switch output port runs
// at 140 Mbps with a bounded queue, and the trunk to the receiver is the
// paper's 516 Mbps testbed wire. The interesting output is where the
// bottleneck sits as load grows: one sender is limited by its own uplink;
// a few senders saturate the switch port (and its queue starts shedding
// PDUs); small PDUs shift the limit to the receiving host's per-PDU
// protocol costs — the same CPU ceiling the paper's §4 measurements chase.
//
// A second sweep removes the fabric caps entirely (kStar: every sender's
// wire lands straight on the receiver's adapter) to expose the other ceiling
// the paper measures: the Osiris board's TurboChannel DMA path, which bus
// contention limits to ~285 Mbps (CostParams::DmaTime) no matter how much
// the wires could carry. One sender is bound by its own uplink below that
// ceiling; two or more contend at rx-dma and their aggregate goodput pins
// to ~285 Mbps — the fig5/fig6 kernel-kernel ceiling, reached here by
// fan-in instead of message size.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/capture.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

struct ClassUse {
  double uplink = 0;      // max over the senders' wires
  double switch_port = 0;
  double trunk = 0;
  double rx_dma = 0;
  double rx_cpu = 0;
};

struct SweepPoint {
  std::size_t senders = 0;
  std::uint64_t pdu = 0;
  double offered_mbps = 0;  // send-side aggregate
  double goodput_mbps = 0;  // sum of per-flow delivered rates
  std::uint64_t drops = 0;
  ClassUse use;
  std::string bottleneck;
  double bottleneck_util = 0;
};

SweepPoint RunPoint(const TopologyConfig& cfg,
                    std::uint64_t message_bytes = 0,
                    Json* attr_json = nullptr,
                    Json* metrics_json = nullptr) {
  BuiltTopology b = BuildTopology(cfg);
  // Default: single-fragment datagrams (message == one PDU): a shed PDU
  // costs exactly one datagram, so goodput degrades gracefully instead of
  // every loss killing a whole multi-fragment reassembly. Lossless sweeps
  // pass a larger |message_bytes| to amortize per-message costs instead.
  // 2 MB per sender either way.
  const std::uint64_t pdu = cfg.host.pdu_size;
  const std::uint64_t bytes = message_bytes != 0 ? message_bytes : pdu;
  std::vector<FlowTraffic> traffic(cfg.senders);
  for (FlowTraffic& t : traffic) {
    t.messages = (2 * 1024 * 1024) / bytes;
    t.bytes = bytes;
    t.warmup = 4;
  }
  RunCapture capture("fanin_contention");
  capture.Watch(b.topo->host(b.receiver_node)->machine, {.metrics = true});
  const MultiResult mr = b.runner->RunFlows(traffic);
  if (attr_json != nullptr) {
    *attr_json = Json::Object{
        {"receiver", TimeAttributionJson(b.topo->host(b.receiver_node)->machine)}};
  }
  if (metrics_json != nullptr) {
    *metrics_json = capture.metrics().ToJson();
  }

  SweepPoint p;
  p.senders = cfg.senders;
  p.pdu = pdu;
  p.offered_mbps = mr.aggregate_mbps;
  for (const FlowResult& f : mr.flows) {
    p.goodput_mbps += f.goodput_mbps;
  }
  if (b.switch_node != kNoNode) {
    p.drops = b.topo->switch_at(b.switch_node)->drops_total();
  }
  for (const ResourceUse& r : mr.resources) {
    if (r.name.rfind("wire/", 0) == 0) {
      p.use.uplink = std::max(p.use.uplink, r.utilization);
    } else if (r.name.rfind("switch/", 0) == 0) {
      p.use.switch_port = std::max(p.use.switch_port, r.utilization);
    } else if (r.name == "trunk") {
      p.use.trunk = r.utilization;
    } else if (r.name == "rx-dma") {
      p.use.rx_dma = std::max(p.use.rx_dma, r.utilization);
    } else if (r.name == "cpu/receiver") {
      p.use.rx_cpu = r.utilization;
    }
    if (r.utilization > p.bottleneck_util) {
      p.bottleneck_util = r.utilization;
      p.bottleneck = r.name;
    }
  }
  return p;
}

// The paper's Osiris I/O ceiling: TurboChannel DMA start-up plus bus
// contention cap the adapter at ~285 Mbps (CostParams::DmaTime).
constexpr double kIoCeilingMbps = 285.0;

int Main() {
  std::printf("\n=== Fan-in through one switch port "
              "(80 Mbps uplinks, 140 Mbps port, 516 Mbps trunk) ===\n");
  std::printf("%8s %8s %9s %9s %7s %8s %8s %8s %8s %8s  %s\n", "senders",
              "pdu", "offered", "goodput", "drops", "uplink", "port", "trunk",
              "rx-dma", "rx-cpu", "bottleneck");
  JsonReport report("fanin_contention");
  Json attr_json;
  Json metrics_json;
  for (std::uint64_t pdu : {2 * 1024, 16 * 1024}) {
    for (std::size_t senders : {1, 2, 4, 8}) {
      // The last point (8 senders, 16 KB PDUs) supplies the receiver's
      // per-layer breakdown; each point is conservation-checked.
      TopologyConfig cfg;
      cfg.shape = TopologyShape::kFanInSwitch;
      cfg.senders = senders;
      cfg.host.pdu_size = pdu;
      cfg.sender_link_mbps = 80.0;
      cfg.switch_port.mbps = 140.0;
      const SweepPoint p = RunPoint(cfg, 0, &attr_json, &metrics_json);
      std::printf("%8zu %6lluKB %9.1f %9.1f %7llu %7.0f%% %7.0f%% %7.0f%% "
                  "%7.0f%% %7.0f%%  %s (%.0f%%)\n",
                  p.senders, static_cast<unsigned long long>(p.pdu / 1024),
                  p.offered_mbps, p.goodput_mbps,
                  static_cast<unsigned long long>(p.drops),
                  p.use.uplink * 100.0, p.use.switch_port * 100.0,
                  p.use.trunk * 100.0, p.use.rx_dma * 100.0,
                  p.use.rx_cpu * 100.0, p.bottleneck.c_str(),
                  p.bottleneck_util * 100.0);
      report.BeginRow()
          .Field("sweep", "fanin_switch")
          .Field("senders", static_cast<double>(p.senders))
          .Field("pdu_kb", static_cast<double>(p.pdu / 1024))
          .Field("offered_mbps", p.offered_mbps)
          .Field("aggregate_goodput_mbps", p.goodput_mbps)
          .Field("switch_drops", static_cast<double>(p.drops))
          .Field("uplink_util", p.use.uplink)
          .Field("switch_port_util", p.use.switch_port)
          .Field("trunk_util", p.use.trunk)
          .Field("rx_dma_util", p.use.rx_dma)
          .Field("rx_cpu_util", p.use.rx_cpu)
          .Field("bottleneck", p.bottleneck)
          .Field("bottleneck_util", p.bottleneck_util);
    }
  }

  // Adapter contention: star fan-in on 160 Mbps wires, no switch in the way.
  // Kernel-resident stacks and 256 KB messages (the fig5 ceiling regime)
  // keep per-PDU protocol and crossing costs off the critical path so the
  // adapter itself is what runs out. One sender is bound by its own wire
  // (160 < 285); from two senders up the offered load exceeds the adapter
  // and aggregate goodput pins to the TurboChannel ceiling regardless of
  // how many more wires feed it.
  std::printf("\n=== Adapter contention: star fan-in straight into rx-dma "
              "(160 Mbps wires, 16 KB PDUs) ===\n");
  std::printf("%8s %9s %9s %9s %9s %8s %8s  %s\n", "senders", "offered",
              "goodput", "ceiling", "of-ceil", "rx-dma", "rx-cpu",
              "bottleneck");
  bool ok = true;
  auto check = [&ok](bool cond, const std::string& why) {
    if (!cond) {
      std::printf("SELF-CHECK FAILED: %s\n", why.c_str());
      ok = false;
    }
  };
  for (std::size_t senders : {1, 2, 4}) {
    TopologyConfig cfg;
    cfg.shape = TopologyShape::kStar;
    cfg.senders = senders;
    cfg.host.pdu_size = 16 * 1024;
    cfg.host.placement = StackPlacement::kKernelOnly;
    cfg.sender_link_mbps = 160.0;
    const SweepPoint p = RunPoint(cfg, 256 * 1024);
    const double of_ceiling = p.goodput_mbps / kIoCeilingMbps;
    std::printf("%8zu %9.1f %9.1f %9.1f %8.0f%% %7.0f%% %7.0f%%  %s (%.0f%%)\n",
                p.senders, p.offered_mbps, p.goodput_mbps, kIoCeilingMbps,
                of_ceiling * 100.0, p.use.rx_dma * 100.0, p.use.rx_cpu * 100.0,
                p.bottleneck.c_str(), p.bottleneck_util * 100.0);
    report.BeginRow()
        .Field("sweep", "adapter_contention")
        .Field("senders", static_cast<double>(p.senders))
        .Field("pdu_kb", static_cast<double>(p.pdu / 1024))
        .Field("offered_mbps", p.offered_mbps)
        .Field("aggregate_goodput_mbps", p.goodput_mbps)
        .Field("io_ceiling_mbps", kIoCeilingMbps)
        .Field("fraction_of_ceiling", of_ceiling)
        .Field("rx_dma_util", p.use.rx_dma)
        .Field("rx_cpu_util", p.use.rx_cpu)
        .Field("bottleneck", p.bottleneck)
        .Field("bottleneck_util", p.bottleneck_util);
    if (senders == 1) {
      check(p.goodput_mbps < 0.75 * kIoCeilingMbps,
            "one sender on a 160 Mbps wire should sit well under the 285 "
            "Mbps adapter ceiling");
    } else {
      check(p.bottleneck == "rx-dma",
            "adapter fan-in should bottleneck at rx-dma, got " + p.bottleneck);
      check(p.goodput_mbps > 0.80 * kIoCeilingMbps &&
                p.goodput_mbps < 1.05 * kIoCeilingMbps,
            "aggregate goodput should pin near the 285 Mbps I/O ceiling");
    }
  }

  report.Section("time_attribution", std::move(attr_json));
  report.Section("metrics", std::move(metrics_json));
  report.Write();
  std::printf("\n%s\n", ok ? "fan-in self-checks passed"
                           : "FAN-IN SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
