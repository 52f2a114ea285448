// Ablation A6: the adapter's path cache (§5.2).
//
// The Osiris driver keeps pre-allocated cached fbufs for the 16 most
// recently used VCIs; other traffic falls back to uncached fbufs. Sweeping
// the number of concurrently active VCIs shows the cliff when the working
// set exceeds the table.
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/topo/testbed.h"

namespace fbufs {
namespace bench {
namespace {

// Average receive-side CPU cost per PDU with |vcis| active circuits
// delivering round-robin.
double PerPduUs(std::uint32_t vcis, Json* attr_json = nullptr) {
  TestbedConfig cfg;
  cfg.placement = StackPlacement::kUserKernel;
  cfg.cached = true;
  Testbed tb(cfg);
  SimHost& rx = tb.receiver();
  // Register one data path per VCI (all sharing the same domain chain).
  std::vector<PathId> paths;
  for (std::uint32_t v = 0; v < vcis; ++v) {
    const PathId p = rx.fsys.paths().Register(
        {kKernelDomainId, rx.sink->domain()->id()});
    rx.adapter.RegisterVci(100 + v, p);
    paths.push_back(p);
  }
  // One 16 KB single-fragment PDU per delivery: build a valid IP+UDP PDU.
  const std::uint64_t body = 16 * 1024;
  std::vector<std::uint8_t> payload(IpProtocol::kHeaderBytes + UdpProtocol::kHeaderBytes + body);
  // IP header
  IpHeader ih;
  ih.total_length = static_cast<std::uint32_t>(payload.size());
  ih.id = 1;
  ih.frag_offset = 0;
  ih.adu_length = static_cast<std::uint32_t>(payload.size() - IpProtocol::kHeaderBytes);
  {
    IpHeader t = ih;
    t.checksum = 0;
    const auto* w16 = reinterpret_cast<const std::uint16_t*>(&t);
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < sizeof(t) / 2; ++i) {
      s += w16[i];
    }
    while (s >> 16) {
      s = (s & 0xffff) + (s >> 16);
    }
    ih.checksum = static_cast<std::uint16_t>(~s);
  }
  std::memcpy(payload.data(), &ih, sizeof(ih));
  UdpHeader uh;
  uh.src_port = 1;
  uh.dst_port = 2000;
  uh.length = static_cast<std::uint32_t>(UdpProtocol::kHeaderBytes + body);
  {
    UdpHeader t = uh;
    t.checksum = 0;
    const auto* w16 = reinterpret_cast<const std::uint16_t*>(&t);
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < sizeof(t) / 2; ++i) {
      s += w16[i];
    }
    while (s >> 16) {
      s = (s & 0xffff) + (s >> 16);
    }
    uh.checksum = static_cast<std::uint16_t>(~s);
  }
  std::memcpy(payload.data() + IpProtocol::kHeaderBytes, &uh, sizeof(uh));

  const int kWarm = static_cast<int>(vcis) * 2;
  const int kIters = static_cast<int>(vcis) * 6;
  for (int i = 0; i < kWarm; ++i) {
    rx.driver->DeliverPdu(payload, 100 + (i % vcis), true);
  }
  const SimTime before = rx.machine.clock().Now();
  for (int i = 0; i < kIters; ++i) {
    rx.driver->DeliverPdu(payload, 100 + (i % vcis), true);
  }
  if (attr_json != nullptr) {
    *attr_json = Json::Object{{"receiver", TimeAttributionJson(rx.machine)}};
  }
  return (rx.machine.clock().Now() - before) / 1000.0 / kIters;
}

int Main() {
  std::printf("\n=== Ablation A6: adapter path cache (16 MRU VCIs) vs active circuits ===\n");
  std::printf("%14s %16s\n", "active-vcis", "us/PDU (rx)");
  JsonReport report("ablation_pathcache");
  Json attr_json;
  for (const std::uint32_t v : {1u, 4u, 8u, 16u, 17u, 24u, 32u}) {
    // Last point (32 VCIs, cache-thrashing) supplies the breakdown; every
    // point is conservation-checked.
    const double us = PerPduUs(v, &attr_json);
    std::printf("%14u %16.1f\n", v, us);
    report.BeginRow()
        .Field("active_vcis", static_cast<double>(v))
        .Field("us_per_pdu_rx", us);
  }
  report.Section("time_attribution", std::move(attr_json));
  report.Write();
  std::printf(
      "\nreading: up to 16 circuits every PDU reuses a cached per-path fbuf; past the MRU\n"
      "table the round-robin defeats it and every delivery pays the uncached path.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace fbufs

int main() { return fbufs::bench::Main(); }
