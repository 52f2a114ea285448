// Parameterized sweeps over the end-to-end testbed: every combination of
// placement, caching, volatility, PDU size and window must deliver all
// bytes, and the paper's ordering relations must hold throughout.
#include <gtest/gtest.h>

#include <tuple>

#include "src/topo/testbed.h"

namespace fbufs {
namespace {

using SweepParam = std::tuple<StackPlacement, bool /*cached*/, bool /*volatile*/,
                              std::uint64_t /*pdu*/, std::uint32_t /*window*/>;

class TestbedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TestbedSweep, DeliversEverythingAndStaysSane) {
  const auto [placement, cached, vol, pdu, window] = GetParam();
  TestbedConfig cfg;
  cfg.placement = placement;
  cfg.cached = cached;
  cfg.volatile_fbufs = vol;
  cfg.pdu_size = pdu;
  cfg.window = window;
  Testbed tb(cfg);
  const std::uint64_t kMessages = 4;
  const std::uint64_t kBytes = 192 * 1024 + 77;  // unaligned on purpose
  const auto r = tb.Run(kMessages, kBytes, /*warmup=*/1);

  EXPECT_GT(r.throughput_mbps, 0.0);
  EXPECT_LE(r.throughput_mbps, 530.0);  // can never beat the wire
  EXPECT_EQ(tb.receiver().sink->received(), kMessages + 1);  // + warmup
  EXPECT_EQ(tb.receiver().sink->bytes_received(), (kMessages + 1) * kBytes);
  EXPECT_GE(r.receiver_cpu_load, 0.0);
  EXPECT_LE(r.receiver_cpu_load, 1.0 + 1e-9);
  EXPECT_LE(r.sender_cpu_load, 1.0 + 1e-9);
  EXPECT_EQ(tb.receiver().ip->reassembly_backlog(), 0u);
  // No stranded references on either host.
  for (SimHost* h : {&tb.sender(), &tb.receiver()}) {
    for (FbufId id = 0;; ++id) {
      Fbuf* fb = h->fsys.Get(id);
      if (fb == nullptr) {
        break;
      }
      EXPECT_TRUE(fb->holders.empty()) << "leak, fbuf " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TestbedSweep,
    ::testing::Combine(::testing::Values(StackPlacement::kKernelOnly,
                                         StackPlacement::kUserKernel,
                                         StackPlacement::kUserNetserverKernel),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values<std::uint64_t>(4096, 16384, 32768),
                       ::testing::Values<std::uint32_t>(1, 8)));

// Ordering relations from the paper, asserted over the sweep axes.
TEST(TestbedOrdering, CachedNeverSlowerThanUncached) {
  for (const auto placement :
       {StackPlacement::kUserKernel, StackPlacement::kUserNetserverKernel}) {
    TestbedConfig c;
    c.placement = placement;
    c.cached = true;
    c.volatile_fbufs = true;
    TestbedConfig u = c;
    u.cached = false;
    u.volatile_fbufs = false;
    Testbed tc(c), tu(u);
    const double cached = tc.Run(6, 1 << 20, 1).throughput_mbps;
    const double uncached = tu.Run(6, 1 << 20, 1).throughput_mbps;
    EXPECT_GE(cached, uncached) << static_cast<int>(placement);
  }
}

TEST(TestbedOrdering, MoreDomainsNeverFaster) {
  for (const std::uint64_t kb : {16ull, 64ull, 1024ull}) {
    double prev = 1e18;
    for (const auto placement : {StackPlacement::kKernelOnly, StackPlacement::kUserKernel,
                                 StackPlacement::kUserNetserverKernel}) {
      TestbedConfig cfg;
      cfg.placement = placement;
      Testbed tb(cfg);
      const double mbps = tb.Run(6, kb * 1024, 1).throughput_mbps;
      EXPECT_LE(mbps, prev * 1.02) << kb << " KB, placement " << static_cast<int>(placement);
      prev = mbps;
    }
  }
}

TEST(TestbedOrdering, BiggerPduLowersCpuLoad) {
  TestbedConfig a;
  a.pdu_size = 16 * 1024;
  TestbedConfig b;
  b.pdu_size = 32 * 1024;
  Testbed ta(a), tb(b);
  const auto ra = ta.Run(6, 1 << 20, 1);
  const auto rb = tb.Run(6, 1 << 20, 1);
  EXPECT_LT(rb.receiver_cpu_load, ra.receiver_cpu_load);
}

}  // namespace
}  // namespace fbufs
