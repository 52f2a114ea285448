// Tests for the deterministic heavy-tail workload generators: the exact
// first draws are pinned (byte-identical benches across platforms depend on
// it), plus distribution-shape sanity checks. Also pins the one format of
// the BENCH files' time_attribution section.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

namespace fbufs {
namespace bench {
namespace {

TEST(PowQuarterTest, QuarterPowersAreExact) {
  EXPECT_DOUBLE_EQ(PowQuarter(4.0, 2), 2.0);    // 4^(1/2)
  EXPECT_DOUBLE_EQ(PowQuarter(16.0, 1), 2.0);   // 16^(1/4)
  EXPECT_DOUBLE_EQ(PowQuarter(16.0, 3), 8.0);   // 16^(3/4)
  EXPECT_DOUBLE_EQ(PowQuarter(16.0, 4), 16.0);  // 16^1
  EXPECT_DOUBLE_EQ(PowQuarter(16.0, 6), 64.0);  // 16^(3/2)
  EXPECT_DOUBLE_EQ(PowQuarter(2.0, 8), 4.0);    // 2^2
  EXPECT_DOUBLE_EQ(PowQuarter(7.0, 0), 1.0);    // x^0
}

TEST(ZipfGeneratorTest, FirstDrawsArePinned) {
  // Regenerating these constants is a red flag: any change to the draw
  // sequence silently breaks byte-identity of every recorded bench.
  const std::uint64_t kExpected[] = {1,  10, 0,  38, 92, 33, 20, 4,
                                     47, 96, 42, 10, 9,  10, 4,  7};
  ZipfGenerator z(0x5eedf00d, 100, /*s_quarters=*/4);
  for (std::uint64_t want : kExpected) {
    EXPECT_EQ(z.Next(), want);
  }
}

TEST(ZipfGeneratorTest, SameSeedSameSequence) {
  ZipfGenerator a(42, 1000, 4);
  ZipfGenerator b(42, 1000, 4);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(ZipfGeneratorTest, RankZeroDominatesAtClassicExponent) {
  // s = 1.0, n = 100: P(rank 0) = 1/H_100 ~ 19.3%. A wide tolerance still
  // catches an inverted CDF or a mis-scaled draw immediately.
  ZipfGenerator z(0x5eedf00d, 100, 4);
  const int kDraws = 20000;
  int rank0 = 0;
  std::uint64_t max_rank = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t r = z.Next();
    ASSERT_LT(r, 100u);
    if (r == 0) {
      rank0++;
    }
    max_rank = std::max(max_rank, r);
  }
  EXPECT_EQ(rank0, 3825);  // exactly, by determinism
  EXPECT_GT(rank0, kDraws * 15 / 100);
  EXPECT_LT(rank0, kDraws * 24 / 100);
  EXPECT_GT(max_rank, 50u);  // the tail is actually sampled
}

TEST(ParetoGeneratorTest, FirstDrawsArePinned) {
  const std::uint64_t kExpected[] = {13855, 4724, 22367, 107512, 17603, 19907,
                                     5854,  9661, 9190,  27588,  9213,  4547,
                                     8979,  5929, 4412,  5328};
  ParetoGenerator p(0xfeedbeef, 4096, 1 << 20, /*inv_alpha_quarters=*/3);
  for (std::uint64_t want : kExpected) {
    EXPECT_EQ(p.Next(), want);
  }
}

TEST(ParetoGeneratorTest, SizesStayInBoundsAndAreHeavyTailed) {
  const std::uint64_t kMin = 4096, kMax = 1 << 20;
  ParetoGenerator p(7, kMin, kMax, 3);
  std::uint64_t over_100k = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t s = p.Next();
    ASSERT_GE(s, kMin);
    ASSERT_LE(s, kMax);
    if (s > 100 * 1024) {
      over_100k++;
    }
  }
  // alpha ~ 1.33: a visible fraction of draws lands far into the tail, but
  // nowhere near the majority.
  EXPECT_GT(over_100k, 100u);
  EXPECT_LT(over_100k, 4000u);
}

TEST(ParetoGeneratorTest, SameSeedSameSequence) {
  ParetoGenerator a(42, 1024, 1 << 16, 2);
  ParetoGenerator b(42, 1024, 1 << 16, 2);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// A 2-CPU machine with fbuf work on path 7 (lane 0) and proto work on
// path 9 (lane 1).
class TimeAttributionJsonTest : public ::testing::Test {
 protected:
  TimeAttributionJsonTest() : m_(TwoCpus()) {
    Attribution& a = m_.attribution();
    {
      PathScope path(a, 7);
      LayerScope layer(a, CostDomain::kFbuf);
      m_.clock().Advance(100);
    }
    CpuScope cpu(m_, 1);
    PathScope path(a, 9);
    LayerScope layer(a, CostDomain::kProto);
    m_.clock().Advance(40);
  }

  static MachineConfig TwoCpus() {
    MachineConfig c;
    c.num_cpus = 2;
    return c;
  }

  Machine m_;
};

TEST_F(TimeAttributionJsonTest, EmitsLayerPathAndCpuSplits) {
  EXPECT_EQ(TimeAttributionJson(m_),
            "{\n"
            "    \"clock_ns\": 140,\n"
            "    \"attributed_ns\": 140,\n"
            "    \"by_layer\": {\"fbuf\": 100, \"proto\": 40},\n"
            "    \"by_path\": {\"7\": 100, \"9\": 40},\n"
            "    \"by_cpu\": [100, 40]\n"
            "  }");
}

TEST_F(TimeAttributionJsonTest, LatencyAndFlowSectionsAppearOnlyWhenPassed) {
  const std::string plain = TimeAttributionJson(m_);
  EXPECT_EQ(plain.find("dispatch_wait_by_path"), std::string::npos);
  EXPECT_EQ(plain.find("ring_occupancy_by_path"), std::string::npos);
  EXPECT_EQ(plain.find("by_flow"), std::string::npos);

  // Zero entries are skipped; the untagged path prints as "none".
  const std::map<AttrPathId, SimTime> wait = {{7, 5}, {8, 0}, {kAttrNoPath, 3}};
  const std::map<AttrPathId, SimTime> occupancy = {{9, 12}};
  const std::vector<std::pair<std::string, std::vector<AttrPathId>>> flows = {
      {"a", {7}}, {"b", {11}}};
  AttributionJsonOptions opts;
  opts.per_path_dispatch_wait = &wait;
  opts.per_path_ring_occupancy = &occupancy;
  opts.flows = &flows;
  // The extras follow the fixed split, which is unchanged ("\n  }" closes).
  EXPECT_EQ(TimeAttributionJson(m_, opts),
            plain.substr(0, plain.size() - 4) +
                ",\n    \"dispatch_wait_by_path\": {\"7\": 5, \"none\": 3},\n"
                "    \"ring_occupancy_by_path\": {\"9\": 12},\n"
                "    \"by_flow\": {\"a\": 100, \"b\": 0, \"none\": 40}\n"
                "  }");
}

}  // namespace
}  // namespace bench
}  // namespace fbufs
