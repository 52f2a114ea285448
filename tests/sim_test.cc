// Unit tests for the sim substrate: clock, cost model, physical memory, rng.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/phys_mem.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace fbufs {
namespace {

TEST(SimClock, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(5);
  clock.Advance(10);
  EXPECT_EQ(clock.Now(), 15u);
}

TEST(SimClock, AdvanceToMovesForward) {
  SimClock clock;
  clock.Advance(100);
  clock.AdvanceTo(250);
  EXPECT_EQ(clock.Now(), 250u);
}

TEST(SimClock, AdvanceToAtLeastIsANoOpWhenAlreadyPast) {
  SimClock clock;
  clock.Advance(100);
  clock.AdvanceToAtLeast(50);
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceToAtLeast(250);
  EXPECT_EQ(clock.Now(), 250u);
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
TEST(SimClockDeathTest, AdvanceToBackwardsAsserts) {
  SimClock clock;
  clock.Advance(100);
  EXPECT_DEATH(clock.AdvanceTo(50), "backwards delivery time");
}
#endif

TEST(SimClock, ResetReturnsToZero) {
  SimClock clock;
  clock.Advance(42);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0u);
}

TEST(CostParams, ZeroPresetChargesNothing) {
  const CostParams z = CostParams::Zero();
  EXPECT_EQ(z.pt_update_ns, 0u);
  EXPECT_EQ(z.page_fault_ns, 0u);
  EXPECT_EQ(z.CopyCost(123456), 0u);
  EXPECT_EQ(z.ChecksumCost(123456), 0u);
}

TEST(CostParams, CopyCostProRatesByPage) {
  const CostParams c = CostParams::DecStation5000();
  EXPECT_EQ(c.CopyCost(kPageSize), c.copy_page_ns);
  EXPECT_EQ(c.CopyCost(kPageSize / 2), c.copy_page_ns / 2);
}

TEST(CostParams, WireTimeMatchesLinkRate) {
  const CostParams c = CostParams::DecStation5000();
  // 516 Mbps: one megabit should take ~1938 microseconds per megabyte...
  // check a full second's worth: link_net_mbps megabits in 1e9 ns.
  const std::uint64_t bytes_per_second = c.link_net_mbps * 1000 * 1000 / 8;
  const SimTime t = c.WireTime(bytes_per_second);
  EXPECT_NEAR(static_cast<double>(t), 1e9, 1e7);
}

TEST(CostParams, DmaTimeExceedsWireOnlyModestly) {
  const CostParams c = CostParams::DecStation5000();
  // The per-cell DMA model must produce the paper's ~285 Mbps ceiling:
  // time for 1 MB should correspond to 260..310 Mbps.
  const std::uint64_t bytes = 1 << 20;
  const double mbps = bytes * 8.0 * 1000.0 / static_cast<double>(c.DmaTime(bytes));
  EXPECT_GT(mbps, 260.0);
  EXPECT_LT(mbps, 310.0);
}

TEST(PhysMem, AllocateAndFreeRoundTrip) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(8, &clock, &costs, &stats);
  EXPECT_EQ(pm.free_frames(), 8u);
  auto f = pm.Allocate(false);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(pm.free_frames(), 7u);
  EXPECT_EQ(pm.RefCount(*f), 1u);
  pm.Unref(*f);
  EXPECT_EQ(pm.free_frames(), 8u);
}

TEST(PhysMem, ExhaustionReturnsNullopt) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(2, &clock, &costs, &stats);
  EXPECT_TRUE(pm.Allocate(false).has_value());
  EXPECT_TRUE(pm.Allocate(false).has_value());
  EXPECT_FALSE(pm.Allocate(false).has_value());
}

// Fresh frames come out ascending from 0; freed frames are reused
// last-in first-out before any frame never handed out.
TEST(PhysMem, FrameOrderIsAscendingThenFreedFramesLifoFirst) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(6, &clock, &costs, &stats);
  auto take = [&pm] {
    const auto f = pm.Allocate(false);
    return f.has_value() ? *f : kInvalidFrame;
  };
  for (FrameId want = 0; want < 4; ++want) {
    EXPECT_EQ(take(), want);
  }
  EXPECT_EQ(pm.free_frames(), 2u);
  pm.Unref(1);
  pm.Unref(3);
  EXPECT_EQ(pm.free_frames(), 4u);  // two freed + two never used
  EXPECT_EQ(take(), 3u);
  EXPECT_EQ(take(), 1u);
  EXPECT_EQ(pm.free_frames(), 2u);
  EXPECT_EQ(take(), 4u);
  pm.Unref(0);
  EXPECT_EQ(pm.free_frames(), 2u);
  EXPECT_EQ(take(), 0u);
  EXPECT_EQ(take(), 5u);
  EXPECT_EQ(pm.free_frames(), 0u);
  // Exhausted at exactly total_frames() frames in use.
  EXPECT_FALSE(pm.Allocate(false).has_value());
  pm.Unref(2);
  EXPECT_EQ(pm.free_frames(), 1u);
  EXPECT_EQ(take(), 2u);
  EXPECT_FALSE(pm.Allocate(false).has_value());
}

TEST(PhysMem, ClearChargesAndZeroes) {
  SimClock clock;
  CostParams costs = CostParams::DecStation5000();
  SimStats stats;
  PhysMem pm(4, &clock, &costs, &stats);
  auto f = pm.Allocate(true);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(clock.Now(), costs.page_clear_ns);
  EXPECT_EQ(stats.pages_cleared, 1u);
  const std::uint8_t* data = pm.Data(*f);
  for (std::uint64_t i = 0; i < kPageSize; i += 997) {
    EXPECT_EQ(data[i], 0);
  }
}

TEST(PhysMem, RefCountSharing) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(4, &clock, &costs, &stats);
  auto f = pm.Allocate(false);
  ASSERT_TRUE(f.has_value());
  pm.Ref(*f);
  pm.Ref(*f);
  EXPECT_EQ(pm.RefCount(*f), 3u);
  pm.Unref(*f);
  pm.Unref(*f);
  EXPECT_EQ(pm.free_frames(), 3u);  // still held
  pm.Unref(*f);
  EXPECT_EQ(pm.free_frames(), 4u);
}

TEST(PhysMem, DataIsPersistentAcrossFrames) {
  SimClock clock;
  CostParams costs = CostParams::Zero();
  SimStats stats;
  PhysMem pm(4, &clock, &costs, &stats);
  auto a = pm.Allocate(false);
  auto b = pm.Allocate(false);
  ASSERT_TRUE(a && b);
  pm.Data(*a)[0] = 0xaa;
  pm.Data(*b)[0] = 0xbb;
  EXPECT_EQ(pm.Data(*a)[0], 0xaa);
  EXPECT_EQ(pm.Data(*b)[0], 0xbb);
}

// Frames handed out without clearing (clear == false, e.g. a disk-DMA
// target) must still read zero the first time round: a fresh arena is
// zero-filled even though its pages are faulted in lazily. 16384 frames is
// a Machine's default 64 MB arena.
TEST(PhysMem, FreshUnclearedFramesReadZeroAndAreWritable) {
  SimClock clock;
  CostParams costs = CostParams::DecStation5000();
  SimStats stats;
  constexpr std::uint32_t kFrames = 16384;
  PhysMem pm(kFrames, &clock, &costs, &stats);
  std::vector<FrameId> frames;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    auto f = pm.Allocate(false);
    ASSERT_TRUE(f.has_value());
    frames.push_back(*f);
  }
  EXPECT_EQ(clock.Now(), 0u);
  EXPECT_EQ(stats.pages_cleared, 0u);
  for (const FrameId f : {frames.front(), frames.back()}) {
    std::uint8_t* data = pm.Data(f);
    for (std::uint64_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(data[i], 0) << "frame " << f << " byte " << i;
    }
    std::memset(data, 0x5a, kPageSize);
  }
  for (const FrameId f : {frames.front(), frames.back()}) {
    const std::uint8_t* data = pm.Data(f);
    for (std::uint64_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(data[i], 0x5a) << "frame " << f << " byte " << i;
    }
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = r.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SimStats, SinceComputesDeltas) {
  SimStats a;
  a.pt_updates = 10;
  a.tlb_misses = 5;
  SimStats b = a;
  b.pt_updates = 13;
  b.tlb_misses = 9;
  b.bytes_copied = 100;
  const SimStats d = b.Since(a);
  EXPECT_EQ(d.pt_updates, 3u);
  EXPECT_EQ(d.tlb_misses, 4u);
  EXPECT_EQ(d.bytes_copied, 100u);
}

TEST(SimStats, ToStringMentionsCounters) {
  SimStats s;
  s.pt_updates = 7;
  const std::string str = s.ToString();
  EXPECT_NE(str.find("pt_updates=7"), std::string::npos);
}

}  // namespace
}  // namespace fbufs
