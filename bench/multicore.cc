// Multicore scaling study: flows x CPUs on the fan-in topology.
//
// K senders push small PDUs through an ATM switch onto a fat trunk into one
// receiver whose machine has N CPU lanes. Receive processing for each flow
// is RSS-steered by VCI to a fixed lane and runs through the receiver's
// evented dispatch queues, so flows sharing a lane serialize behind each
// other (the queueing delay is measured, not modeled away). With one lane
// the receiving CPU is the bottleneck; adding lanes scales goodput until a
// hardware resource — RX DMA or the trunk — saturates instead, which is
// where real multicore hosts stop benefiting too. The bench checks that
// claim and exits nonzero when it fails: every flow count F >= 2 gains at
// least kMinScaling in goodput from 1 to 2 lanes, and every F >= 4 from 2
// to 4 lanes.
//
// Every point hard-checks attribution conservation on the receiver, per
// lane and to the nanosecond: the time attributed to lane i must equal lane
// i's clock exactly, and the sum over lanes must equal the attributed
// total. The last point also exports TRACE_multicore.json with per-lane
// busy intervals, dispatch-queue depth/wait counter tracks, and one
// lane_conservation instant per lane for tools/validate_traces.py.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/capture.h"
#include "src/topo/topo_config.h"

namespace fbufs {
namespace bench {
namespace {

constexpr std::uint64_t kPduBytes = 2 * 1024;
// Least goodput ratio a doubling of lanes must buy while each lane still has
// a flow of its own.
constexpr double kMinScaling = 1.5;

struct SweepPoint {
  std::size_t flows = 0;
  std::uint32_t cpus = 0;
  double goodput_mbps = 0;     // sum of per-flow delivered rates
  double rx_lane_util = 0;     // hottest receiver lane
  double rx_dma_util = 0;
  double trunk_util = 0;
  std::uint64_t dispatch_items = 0;
  double dispatch_wait_total_us = 0;  // queueing delay behind busy lanes
  double dispatch_wait_max_us = 0;
  std::string bottleneck;
  double bottleneck_util = 0;
};

struct PointArtifacts {
  Json attribution_json;  // receiver, per-path + per-lane breakdown
  Json metrics_json;      // receiver metrics (histograms with p50/p99)
  bool export_trace = false;
};

SweepPoint RunPoint(std::size_t flows, std::uint32_t cpus,
                    std::uint64_t messages, PointArtifacts* artifacts) {
  TopologyConfig cfg;
  cfg.shape = TopologyShape::kFanInSwitch;
  cfg.senders = flows;
  cfg.host.pdu_size = kPduBytes;
  cfg.host.machine.num_cpus = cpus;
  // The uplinks and switch port run well above what one receiving CPU can
  // absorb at this PDU size, so with few lanes the receiver's CPU is the
  // ceiling; the 80 Mbps trunk is sized so that once enough lanes are added
  // the wire takes over as the bottleneck — the point past which more cores
  // stop paying, exactly the crossover the sweep is after.
  cfg.sender_link_mbps = 622.0;
  cfg.switch_port.mbps = 2400.0;
  cfg.switch_port.queue_pdus = 256;
  cfg.trunk_mbps = 80.0;

  BuiltTopology b = BuildTopology(cfg);
  SimHost* rx = b.topo->host(b.receiver_node);

  RunCapture capture("multicore", artifacts->export_trace);
  capture.Watch(rx->machine, {.trace = true, .metrics = true, .conservation = true});
  for (std::uint32_t c = 0; c < rx->machine.num_cpus(); ++c) {
    capture.Watch(rx->machine.cpu_lane(c));
  }

  std::vector<FlowTraffic> traffic(flows);
  for (FlowTraffic& t : traffic) {
    t.messages = messages;
    t.bytes = kPduBytes;
    t.warmup = 4;
  }
  const MultiResult mr = b.runner->RunFlows(traffic);

  SweepPoint p;
  p.flows = flows;
  p.cpus = cpus;
  for (const FlowResult& f : mr.flows) {
    p.goodput_mbps += f.goodput_mbps;
  }
  for (const ResourceUse& r : mr.resources) {
    const bool rx_lane = r.name == "cpu/receiver" ||
                         r.name.rfind("cpu/receiver/", 0) == 0;
    if (rx_lane) {
      p.rx_lane_util = std::max(p.rx_lane_util, r.utilization);
    } else if (r.name == "rx-dma") {
      p.rx_dma_util = std::max(p.rx_dma_util, r.utilization);
    } else if (r.name == "trunk") {
      p.trunk_util = r.utilization;
    }
    if (r.utilization > p.bottleneck_util) {
      p.bottleneck_util = r.utilization;
      p.bottleneck = r.name;
    }
  }
  if (rx->dispatcher != nullptr) {
    p.dispatch_wait_total_us =
        static_cast<double>(rx->dispatcher->TotalWaitNs()) / 1000.0;
    p.dispatch_wait_max_us =
        static_cast<double>(rx->dispatcher->MaxWaitNs()) / 1000.0;
    for (std::uint32_t c = 0; c < rx->machine.num_cpus(); ++c) {
      p.dispatch_items += rx->dispatcher->QueueForCpu(c).completed();
    }
  }

  // Conservation, checked on every point (TimeAttributionJson aborts on any
  // violation): total attributed == sum of lane clocks, and each lane's
  // total == that lane's clock, nanosecond-exact.
  artifacts->attribution_json =
      Json::Object{{"receiver", TimeAttributionJson(rx->machine)}};
  artifacts->metrics_json = capture.metrics().ToJson();
  if (artifacts->export_trace) {
    capture.WriteTrace();
  }
  return p;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const std::uint64_t messages = smoke ? 48 : 256;
  const std::vector<std::size_t> flow_counts =
      smoke ? std::vector<std::size_t>{1, 2, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::uint32_t> cpu_counts = {1, 2, 4};

  std::printf("\n=== Multicore receiver scaling "
              "(fan-in, %llu KB PDUs, RSS by VCI, evented dispatch) ===\n",
              static_cast<unsigned long long>(kPduBytes / 1024));
  std::printf("%6s %5s %9s %8s %8s %8s %7s %10s %9s  %s\n", "flows", "cpus",
              "goodput", "rx-lane", "rx-dma", "trunk", "disp#", "wait-tot",
              "wait-max", "bottleneck");

  JsonReport report("multicore");
  Json attr_json;
  Json metrics_json;
  std::map<std::pair<std::size_t, std::uint32_t>, double> goodput;  // (flows, cpus)
  for (std::size_t flows : flow_counts) {
    for (std::uint32_t cpus : cpu_counts) {
      const bool last = flows == flow_counts.back() && cpus == cpu_counts.back();
      PointArtifacts artifacts;
      artifacts.export_trace = last;
      const SweepPoint p = RunPoint(flows, cpus, messages, &artifacts);
      goodput[{flows, cpus}] = p.goodput_mbps;
      if (last) {
        attr_json = std::move(artifacts.attribution_json);
        metrics_json = std::move(artifacts.metrics_json);
      }
      std::printf("%6zu %5u %7.1fMb %7.0f%% %7.0f%% %7.0f%% %7llu %8.1fus "
                  "%7.1fus  %s (%.0f%%)\n",
                  p.flows, p.cpus, p.goodput_mbps, p.rx_lane_util * 100.0,
                  p.rx_dma_util * 100.0, p.trunk_util * 100.0,
                  static_cast<unsigned long long>(p.dispatch_items),
                  p.dispatch_wait_total_us, p.dispatch_wait_max_us,
                  p.bottleneck.c_str(), p.bottleneck_util * 100.0);
      report.BeginRow()
          .Field("flows", static_cast<double>(p.flows))
          .Field("cpus", static_cast<double>(p.cpus))
          .Field("aggregate_goodput_mbps", p.goodput_mbps)
          .Field("rx_lane_util", p.rx_lane_util)
          .Field("rx_dma_util", p.rx_dma_util)
          .Field("trunk_util", p.trunk_util)
          .Field("dispatch_items", static_cast<double>(p.dispatch_items))
          .Field("dispatch_wait_total_us", p.dispatch_wait_total_us)
          .Field("dispatch_wait_max_us", p.dispatch_wait_max_us)
          .Field("bottleneck", p.bottleneck)
          .Field("bottleneck_util", p.bottleneck_util);
    }
  }
  report.Section("time_attribution", std::move(attr_json));
  report.Section("metrics", std::move(metrics_json));
  report.Write();

  // --- Self-check: doubling the lanes scales goodput ---------------------------
  bool ok = true;
  std::printf("\n");
  for (std::size_t flows : flow_counts) {
    for (std::uint32_t cpus = 2; cpus <= cpu_counts.back() && cpus <= flows; cpus *= 2) {
      const double ratio = goodput[{flows, cpus}] / goodput[{flows, cpus / 2}];
      const bool pass = ratio >= kMinScaling;
      ok = ok && pass;
      std::printf("%zu flows, %u vs %u cpus: %.2fx goodput (at least %.1fx)%s\n", flows,
                  cpus, cpus / 2, ratio, kMinScaling, pass ? "" : "  SELF-CHECK FAILED");
    }
  }
  std::printf("\n%s\n", ok ? "multicore scaling self-checks passed"
                           : "MULTICORE SCALING SELF-CHECK FAILURES (see above)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main(int argc, char** argv) { return fbufs::bench::Main(argc, argv); }
