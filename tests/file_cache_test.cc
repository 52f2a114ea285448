// Tests for the unified buffer cache extension: zero-copy reads, shared
// blocks, eviction, and dynamic memory sharing with the network subsystem.
#include <gtest/gtest.h>

#include "src/cache/file_cache.h"
#include "src/proto/loopback_stack.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

class FileCacheTest : public ::testing::Test {
 protected:
  FileCacheTest() : world_(ZeroCostConfig()) {
    app_ = world_.AddDomain("app");
    app2_ = world_.AddDomain("app2");
  }

  static FileCacheConfig SmallConfig() {
    FileCacheConfig c;
    c.block_bytes = 8192;
    c.capacity_blocks = 4;
    return c;
  }

  World world_;
  Domain* app_;
  Domain* app2_;
};

TEST_F(FileCacheTest, MissThenHit) {
  FileCache cache(&world_.fsys, SmallConfig());
  Message m1;
  ASSERT_EQ(cache.Read(1, 0, *app_, &m1), Status::kOk);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.disk_reads(), 1u);
  ASSERT_EQ(cache.Release(m1, *app_), Status::kOk);

  Message m2;
  ASSERT_EQ(cache.Read(1, 0, *app_, &m2), Status::kOk);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.disk_reads(), 1u);  // no second disk access
  ASSERT_EQ(cache.Release(m2, *app_), Status::kOk);
}

TEST_F(FileCacheTest, ReadContentIsDeterministicAndReadable) {
  // Two full pages, and a block that ends mid-way through its second page.
  for (const std::uint64_t block_bytes : {8192u, 6000u}) {
    SCOPED_TRACE(block_bytes);
    FileCacheConfig config = SmallConfig();
    config.block_bytes = block_bytes;
    FileCache cache(&world_.fsys, config);
    Message m;
    ASSERT_EQ(cache.Read(3, 7, *app_, &m), Status::kOk);
    EXPECT_EQ(m.length(), block_bytes);
    // Every byte: byte i of the block is (f*37 + b*11 + i) mod 256.
    std::vector<std::uint8_t> data(block_bytes);
    ASSERT_EQ(m.CopyOut(*app_, 0, data.data(), data.size()), Status::kOk);
    for (std::uint64_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i], static_cast<std::uint8_t>(3 * 37 + 7 * 11 + i)) << "byte " << i;
    }
    // The application cannot scribble on the cache.
    EXPECT_EQ(m.Touch(*app_, Access::kWrite), Status::kProtection);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  }
}

TEST_F(FileCacheTest, TwoReadersShareOnePhysicalBlock) {
  FileCache cache(&world_.fsys, SmallConfig());
  Message a, b;
  ASSERT_EQ(cache.Read(1, 0, *app_, &a), Status::kOk);
  ASSERT_EQ(cache.Read(1, 0, *app2_, &b), Status::kOk);
  EXPECT_EQ(cache.disk_reads(), 1u);
  // Identical frames under both readers: one copy of the data, period.
  Fbuf* fb = a.Fbufs()[0];
  EXPECT_EQ(fb, b.Fbufs()[0]);
  EXPECT_EQ(app_->DebugFrame(PageOf(fb->base)), app2_->DebugFrame(PageOf(fb->base)));
  EXPECT_EQ(world_.machine.stats().bytes_copied, 0u);
  ASSERT_EQ(cache.Release(a, *app_), Status::kOk);
  ASSERT_EQ(cache.Release(b, *app2_), Status::kOk);
}

TEST_F(FileCacheTest, ReadIsZeroCopyEvenAcrossRepeats) {
  FileCache cache(&world_.fsys, SmallConfig());
  for (int i = 0; i < 5; ++i) {
    Message m;
    ASSERT_EQ(cache.Read(2, 1, *app_, &m), Status::kOk);
    ASSERT_EQ(m.Touch(*app_, Access::kRead), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  }
  EXPECT_EQ(world_.machine.stats().bytes_copied, 0u);
  // After the first read the app's mappings persist: no more pt work.
  const SimStats before = world_.machine.stats();
  Message m;
  ASSERT_EQ(cache.Read(2, 1, *app_, &m), Status::kOk);
  ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  EXPECT_EQ(world_.machine.stats().Since(before).pt_updates, 0u);
}

TEST_F(FileCacheTest, LruEvictionUnderCapacity) {
  FileCache cache(&world_.fsys, SmallConfig());  // capacity 4
  for (std::uint64_t b = 0; b < 6; ++b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app_, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  }
  EXPECT_EQ(cache.resident_blocks(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
  // Blocks 0 and 1 were evicted; re-reading hits the disk again.
  Message m;
  ASSERT_EQ(cache.Read(1, 0, *app_, &m), Status::kOk);
  EXPECT_EQ(cache.disk_reads(), 7u);
  ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
}

TEST_F(FileCacheTest, EvictionReasonsAreAccountedSeparately) {
  FileCache cache(&world_.fsys, SmallConfig());  // capacity 4

  // Capacity: LRU churn past the block limit.
  for (std::uint64_t b = 0; b < 6; ++b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app_, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  }
  EXPECT_GE(cache.capacity_evictions(), 2u);
  EXPECT_EQ(cache.pressure_evictions(), 0u);

  // Pressure: an explicit Shrink is the sweep's lever, counted apart.
  const std::uint64_t cap_before = cache.capacity_evictions();
  EXPECT_GT(cache.Shrink(1), 0u);
  EXPECT_GT(cache.pressure_evictions(), 0u);
  EXPECT_EQ(cache.capacity_evictions(), cap_before);
  EXPECT_EQ(cache.evictions(),
            cache.capacity_evictions() + cache.pressure_evictions());
}

TEST_F(FileCacheTest, HotBlockSurvivesEviction) {
  FileCache cache(&world_.fsys, SmallConfig());
  auto touch = [&](std::uint64_t b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app_, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  };
  touch(0);
  for (std::uint64_t b = 1; b < 6; ++b) {
    touch(0);  // keep block 0 hot
    touch(b);
  }
  const std::uint64_t reads_before = cache.disk_reads();
  touch(0);
  EXPECT_EQ(cache.disk_reads(), reads_before);  // still resident
}

TEST_F(FileCacheTest, ShrinkReleasesMemoryToTheSharedPool) {
  FileCache cache(&world_.fsys, SmallConfig());
  for (std::uint64_t b = 0; b < 4; ++b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app_, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  }
  const std::uint32_t free_before = world_.machine.pmem().free_frames();
  EXPECT_EQ(cache.Shrink(1), 3u);
  world_.fsys.ReclaimFreeMemory();
  EXPECT_GT(world_.machine.pmem().free_frames(), free_before);
}

TEST_F(FileCacheTest, CoexistsWithNetworkTrafficInOneMemoryPool) {
  // The paper's point against dedicated adapter memory: cache blocks and
  // network buffers draw from the same physical pool.
  FileCache cache(&world_.fsys, SmallConfig());
  LoopbackStackConfig lcfg;
  lcfg.three_domains = false;
  LoopbackStack ls(&world_.machine, &world_.fsys, &world_.rpc, lcfg);
  for (int round = 0; round < 3; ++round) {
    Message m;
    ASSERT_EQ(cache.Read(1, static_cast<std::uint64_t>(round), *app_, &m), Status::kOk);
    ASSERT_EQ(ls.SendMessage(20000), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  }
  EXPECT_EQ(ls.sink().received(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST_F(FileCacheTest, PinnedBlockSurvivesPressureSweep) {
  FileCache cache(&world_.fsys, SmallConfig());
  Message m;
  ASSERT_EQ(cache.Read(1, 0, *app_, &m), Status::kOk);
  ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  ASSERT_EQ(cache.Pin(1, 0), Status::kOk);
  EXPECT_TRUE(cache.IsPinned(1, 0));
  EXPECT_EQ(cache.pinned_blocks(), 1u);

  // A sweep all the way to zero must leave the pinned block in place.
  EXPECT_EQ(cache.Shrink(0), 0u);
  EXPECT_TRUE(cache.Resident(1, 0));
  EXPECT_GT(cache.pin_blocked_evictions(), 0u);
  // And a pinned hit costs no disk access.
  const std::uint64_t reads = cache.disk_reads();
  ASSERT_EQ(cache.Read(1, 0, *app_, &m), Status::kOk);
  ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  EXPECT_EQ(cache.disk_reads(), reads);

  // Unpinned, the same sweep takes it.
  ASSERT_EQ(cache.Unpin(1, 0), Status::kOk);
  EXPECT_EQ(cache.Shrink(0), 1u);
  EXPECT_FALSE(cache.Resident(1, 0));
}

TEST_F(FileCacheTest, PinRefcountsNest) {
  FileCache cache(&world_.fsys, SmallConfig());
  Message m;
  ASSERT_EQ(cache.Read(2, 3, *app_, &m), Status::kOk);
  ASSERT_EQ(cache.Release(m, *app_), Status::kOk);

  ASSERT_EQ(cache.Pin(2, 3), Status::kOk);
  ASSERT_EQ(cache.Pin(2, 3), Status::kOk);
  EXPECT_EQ(cache.total_pins(), 2u);
  EXPECT_EQ(cache.pinned_blocks(), 1u);  // two pins, one block
  ASSERT_EQ(cache.Unpin(2, 3), Status::kOk);
  EXPECT_TRUE(cache.IsPinned(2, 3));  // the second pin still holds it
  ASSERT_EQ(cache.Unpin(2, 3), Status::kOk);
  EXPECT_FALSE(cache.IsPinned(2, 3));
  EXPECT_EQ(cache.total_pins(), 0u);
  EXPECT_EQ(cache.pinned_blocks(), 0u);

  // Unbalanced unpins and pins on absent blocks are caller bugs, reported.
  EXPECT_EQ(cache.Unpin(2, 3), Status::kInvalidArgument);
  EXPECT_EQ(cache.Pin(9, 9), Status::kNotFound);
  EXPECT_EQ(cache.Unpin(9, 9), Status::kNotFound);
}

TEST_F(FileCacheTest, CapacityEvictionSkipsPinnedBlocks) {
  FileCache cache(&world_.fsys, SmallConfig());  // capacity 4
  auto touch = [&](std::uint64_t b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app_, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  };
  for (std::uint64_t b = 0; b < 4; ++b) {
    touch(b);
  }
  // Block 0 is the LRU victim-to-be; pin it and churn past capacity.
  ASSERT_EQ(cache.Pin(1, 0), Status::kOk);
  touch(4);
  touch(5);
  EXPECT_TRUE(cache.Resident(1, 0));  // survived despite being coldest
  EXPECT_FALSE(cache.Resident(1, 1));  // the next-coldest paid instead
  ASSERT_EQ(cache.Unpin(1, 0), Status::kOk);
}

// pin_blocked_evictions counts one per pinned block an LRU scan passes
// over before it finds a victim, and every resident block when it finds none.
TEST_F(FileCacheTest, PinBlockedEvictionsCountEachPinnedBlockScanned) {
  FileCache cache(&world_.fsys, SmallConfig());  // capacity 4
  auto touch = [&](std::uint64_t b) {
    Message m;
    ASSERT_EQ(cache.Read(1, b, *app_, &m), Status::kOk);
    ASSERT_EQ(cache.Release(m, *app_), Status::kOk);
  };
  for (std::uint64_t b = 0; b < 4; ++b) {
    touch(b);
    ASSERT_EQ(cache.Pin(1, b), Status::kOk);
  }

  // Every resident block pinned: the miss counts all four, evicts nothing,
  // and the cache goes one block over capacity.
  touch(4);
  EXPECT_EQ(cache.pin_blocked_evictions(), 4u);
  EXPECT_EQ(cache.capacity_evictions(), 0u);
  EXPECT_EQ(cache.resident_blocks(), 5u);

  // Pin the newcomer too, then unpin block 2, in the middle of the LRU
  // order (oldest first: 0 1 2 3 4). The next miss passes over blocks 0 and
  // 1 and evicts block 2. The cache is then still at capacity with every
  // block pinned, so a second scan counts all four and gives up.
  ASSERT_EQ(cache.Pin(1, 4), Status::kOk);
  ASSERT_EQ(cache.Unpin(1, 2), Status::kOk);
  touch(5);
  EXPECT_EQ(cache.pin_blocked_evictions(), 4u + 2u + 4u);
  EXPECT_EQ(cache.capacity_evictions(), 1u);
  EXPECT_FALSE(cache.Resident(1, 2));
  for (const std::uint64_t b : {0u, 1u, 3u, 4u, 5u}) {
    EXPECT_TRUE(cache.Resident(1, b)) << "block " << b;
  }
}

TEST_F(FileCacheTest, MissPropagatesAllocatorFailure) {
  // Room for one block: the cache's allocator may own one two-page chunk,
  // so a second resident block cannot be carved.
  FbufConfig fcfg;
  fcfg.chunk_pages = 2;
  fcfg.chunk_quota = 1;
  World world(ZeroCostConfig(), fcfg);
  Domain* app = world.AddDomain("app");
  FileCache cache(&world.fsys, SmallConfig());
  Message m;
  ASSERT_EQ(cache.Read(1, 0, *app, &m), Status::kOk);
  ASSERT_EQ(cache.Release(m, *app), Status::kOk);

  Message m2;
  const Status st = cache.Read(2, 0, *app, &m2);
  // The failure comes back as a Status — never papered over with a stale
  // or zero-filled block.
  EXPECT_EQ(st, Status::kQuotaExceeded);
  EXPECT_FALSE(cache.Resident(2, 0));
  // The cache itself is intact: the resident block still serves hits.
  ASSERT_EQ(cache.Read(1, 0, *app, &m2), Status::kOk);
  ASSERT_EQ(cache.Release(m2, *app), Status::kOk);
}

TEST_F(FileCacheTest, DeadReaderGetsNothingAndTheBlockSurvives) {
  FileCache cache(&world_.fsys, SmallConfig());
  world_.machine.DestroyDomain(app2_->id());
  Message m;
  // The grant to the dead reader fails and rolls back...
  EXPECT_EQ(cache.Read(4, 0, *app2_, &m), Status::kInvalidArgument);
  // ...but the fetched block stays resident and readable by the living.
  EXPECT_TRUE(cache.Resident(4, 0));
  Message m2;
  ASSERT_EQ(cache.Read(4, 0, *app_, &m2), Status::kOk);
  std::uint8_t byte = 0;
  ASSERT_EQ(m2.CopyOut(*app_, 0, &byte, 1), Status::kOk);
  EXPECT_EQ(byte, static_cast<std::uint8_t>(4 * 37));
  ASSERT_EQ(cache.Release(m2, *app_), Status::kOk);
}

TEST_F(FileCacheTest, DiskCostsAreCharged) {
  World w{MachineConfig{}};
  Domain* app = w.AddDomain("app");
  FileCacheConfig cfg;
  FileCache cache(&w.fsys, cfg);
  const SimTime before = w.machine.clock().Now();
  Message m;
  ASSERT_EQ(cache.Read(1, 0, *app, &m), Status::kOk);
  const SimTime miss_time = w.machine.clock().Now() - before;
  EXPECT_GE(miss_time, cfg.disk_access_ns);
  ASSERT_EQ(cache.Release(m, *app), Status::kOk);
  // Hits skip the disk entirely.
  const SimTime before2 = w.machine.clock().Now();
  ASSERT_EQ(cache.Read(1, 0, *app, &m), Status::kOk);
  EXPECT_LT(w.machine.clock().Now() - before2, cfg.disk_access_ns);
  ASSERT_EQ(cache.Release(m, *app), Status::kOk);
}

}  // namespace
}  // namespace fbufs
