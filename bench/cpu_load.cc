// Reproduces the §4 CPU-load measurements: receiving-host CPU load during
// the reception of 1 MB messages, cached vs uncached fbufs, at 16 KB and
// 32 KB IP PDU sizes.
//
// Paper: at 16 KB PDUs the receiving CPU is 88% loaded with cached fbufs and
// saturated with uncached ones; at 32 KB PDUs (protocol overheads roughly
// halved) the load is 55% cached while uncached remains near saturation —
// i.e. cached fbufs buy up to a 45% CPU reduction or up to 2x throughput.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/topo/testbed.h"

namespace fbufs {
namespace bench {
namespace {

Testbed::Result Run(bool cached, std::uint64_t pdu) {
  TestbedConfig cfg;
  cfg.placement = StackPlacement::kUserKernel;
  cfg.pdu_size = pdu;
  cfg.cached = cached;
  cfg.volatile_fbufs = cached;
  Testbed tb(cfg);
  return tb.Run(16, 1 << 20, /*warmup=*/2);
}

int Main() {
  std::printf("\n=== CPU load on the receiving host, 1 MB messages (paper §4) ===\n");
  std::printf("%8s %10s %12s %12s %14s\n", "pdu", "fbufs", "rx-load", "paper", "Mbps");
  struct Case {
    std::uint64_t pdu;
    bool cached;
    const char* paper;
  };
  const Case cases[] = {{16 * 1024, true, "88%"},
                        {16 * 1024, false, "saturated"},
                        {32 * 1024, true, "55%"},
                        {32 * 1024, false, "~saturated"}};
  JsonReport report("cpu_load");
  for (const Case& c : cases) {
    const auto r = Run(c.cached, c.pdu);
    std::printf("%6lluKB %10s %11.0f%% %12s %14.1f\n",
                static_cast<unsigned long long>(c.pdu / 1024),
                c.cached ? "cached" : "uncached", r.receiver_cpu_load * 100.0, c.paper,
                r.throughput_mbps);
    report.BeginRow()
        .Field("pdu_kb", static_cast<double>(c.pdu / 1024))
        .Field("fbufs", c.cached ? "cached" : "uncached")
        .Field("rx_cpu_load", r.receiver_cpu_load)
        .Field("throughput_mbps", r.throughput_mbps);
  }
  // Per-layer time breakdown of the receiving host in the headline
  // configuration (cached, 16 KB PDUs); conservation-checked.
  {
    TestbedConfig cfg;
    cfg.placement = StackPlacement::kUserKernel;
    cfg.pdu_size = 16 * 1024;
    cfg.cached = true;
    cfg.volatile_fbufs = true;
    Testbed tb(cfg);
    tb.Run(16, 1 << 20, /*warmup=*/2);
    report.Section("time_attribution",
                   Json::Object{{"receiver", TimeAttributionJson(tb.receiver().machine)}});
  }
  report.Write();
  // The paper's headline ("up to 45% CPU reduction or up to 2x throughput")
  // compares the saturated uncached receiver against the cached one once
  // protocol overheads are halved (32 KB PDUs).
  const auto u16 = Run(false, 16 * 1024);
  const auto c32 = Run(true, 32 * 1024);
  std::printf("\ncached fbufs (32K PDU) vs uncached (16K PDU): %.0f%% CPU reduction "
              "(paper: up to 45%%)\n",
              (u16.receiver_cpu_load - c32.receiver_cpu_load) * 100.0);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
