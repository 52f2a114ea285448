// Behavioural tests for the fbuf system: allocation, caching, transfer
// semantics, immutability/volatility, deallocation notices, quotas, memory
// reclamation, absent-data semantics and domain termination.
#include <gtest/gtest.h>

#include "src/fbuf/fbuf_system.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

class FbufTest : public ::testing::Test {
 protected:
  FbufTest() : world_(ZeroCostConfig()) {
    src_ = world_.AddDomain("src");
    dst_ = world_.AddDomain("dst");
    third_ = world_.AddDomain("third");
    path_ = world_.fsys.paths().Register({src_->id(), dst_->id()});
  }

  Fbuf* AllocOn(Domain& d, PathId p, std::uint64_t bytes, bool vol = true) {
    Fbuf* fb = nullptr;
    EXPECT_EQ(world_.fsys.Allocate(d, p, bytes, vol, &fb), Status::kOk);
    return fb;
  }

  World world_;
  Domain* src_;
  Domain* dst_;
  Domain* third_;
  PathId path_;
};

TEST_F(FbufTest, AllocationIsPageGranularAndWritable) {
  Fbuf* fb = AllocOn(*src_, path_, 5000);
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(fb->pages, 2u);
  EXPECT_TRUE(fb->cached);
  EXPECT_TRUE(InFbufRegion(fb->base));
  EXPECT_EQ(src_->WriteWord(fb->base + 4996, 0x55aa), Status::kOk);
}

TEST_F(FbufTest, UnknownPathFallsBackToUncached) {
  Fbuf* fb = AllocOn(*src_, kNoPath, 100);
  EXPECT_FALSE(fb->cached);
  // A path originated by someone else also falls back.
  const PathId other = world_.fsys.paths().Register({dst_->id(), src_->id()});
  Fbuf* fb2 = AllocOn(*src_, other, 100);
  EXPECT_FALSE(fb2->cached);
}

TEST_F(FbufTest, TransferIsZeroCopy) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(src_->WriteWord(fb->base, 0xfeedface), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  std::uint32_t got = 0;
  ASSERT_EQ(dst_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0xfeedfaceu);
  // Same physical frame in both domains: no bytes moved.
  EXPECT_EQ(src_->DebugFrame(PageOf(fb->base)), dst_->DebugFrame(PageOf(fb->base)));
  EXPECT_EQ(world_.machine.stats().bytes_copied, 0u);
}

TEST_F(FbufTest, ReceiverCannotWrite) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  EXPECT_EQ(dst_->WriteWord(fb->base, 1), Status::kProtection);
}

TEST_F(FbufTest, VolatileOriginatorKeepsWriteAccess) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize, /*vol=*/true);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  // Volatile: the receiver must assume asynchronous changes are possible.
  EXPECT_EQ(src_->WriteWord(fb->base, 0xbad), Status::kOk);
  std::uint32_t got = 0;
  ASSERT_EQ(dst_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0xbadu);
}

TEST_F(FbufTest, NonVolatileTransferSecuresEagerly) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize, /*vol=*/false);
  ASSERT_EQ(src_->WriteWord(fb->base, 1), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  EXPECT_TRUE(fb->secured);
  EXPECT_EQ(src_->WriteWord(fb->base, 2), Status::kProtection);
}

TEST_F(FbufTest, SecureOnRequestRevokesOriginatorWrite) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize, /*vol=*/true);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Secure(fb, *dst_), Status::kOk);
  EXPECT_EQ(src_->WriteWord(fb->base, 3), Status::kProtection);
}

TEST_F(FbufTest, SecureIsNoOpForTrustedOriginator) {
  const PathId kpath = world_.fsys.paths().Register({kKernelDomainId, dst_->id()});
  Fbuf* fb = AllocOn(world_.machine.kernel(), kpath, kPageSize, /*vol=*/true);
  ASSERT_EQ(world_.fsys.Transfer(fb, world_.machine.kernel(), *dst_), Status::kOk);
  const SimStats before = world_.machine.stats();
  ASSERT_EQ(world_.fsys.Secure(fb, *dst_), Status::kOk);
  EXPECT_FALSE(fb->secured);
  EXPECT_EQ(world_.machine.stats().Since(before).pt_updates, 0u);
  // The kernel can still write its own buffer.
  EXPECT_EQ(world_.machine.kernel().WriteWord(fb->base, 1), Status::kOk);
}

TEST_F(FbufTest, FreeRestoresOriginatorWrite) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize, /*vol=*/false);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  // The fbuf is back on the free list with write permission restored; the
  // next allocation on the path reuses it.
  Fbuf* again = AllocOn(*src_, path_, kPageSize, /*vol=*/false);
  EXPECT_EQ(again, fb);
  EXPECT_EQ(src_->WriteWord(fb->base, 7), Status::kOk);
}

TEST_F(FbufTest, CachedReuseIsLifo) {
  Fbuf* a = AllocOn(*src_, path_, kPageSize);
  Fbuf* b = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(world_.fsys.Free(a, *src_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(b, *src_), Status::kOk);
  // b freed last, so b comes back first.
  EXPECT_EQ(AllocOn(*src_, path_, kPageSize), b);
  EXPECT_EQ(AllocOn(*src_, path_, kPageSize), a);
}

TEST_F(FbufTest, CachedReusePerformsNoMappingWork) {
  Fbuf* fb = AllocOn(*src_, path_, 4 * kPageSize);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  const SimStats before = world_.machine.stats();
  Fbuf* again = AllocOn(*src_, path_, 4 * kPageSize);
  ASSERT_EQ(again, fb);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  const SimStats d = world_.machine.stats().Since(before);
  EXPECT_EQ(d.pt_updates, 0u);
  EXPECT_EQ(d.tlb_flushes, 0u);
  EXPECT_EQ(d.pages_cleared, 0u);
  EXPECT_EQ(d.fbuf_cache_hits, 1u);
}

TEST_F(FbufTest, UncachedFreeTearsDownMappings) {
  Fbuf* fb = AllocOn(*src_, kNoPath, 2 * kPageSize);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  const std::uint32_t frames_before = world_.machine.pmem().free_frames();
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  // Final release was by the receiver: delivery happens on the next RPC
  // between the two; force it.
  world_.fsys.FlushNotices(dst_->id(), src_->id());
  EXPECT_TRUE(fb->dead);
  EXPECT_EQ(world_.machine.pmem().free_frames(), frames_before + 2);
  std::uint32_t v;
  EXPECT_EQ(src_->FindEntry(PageOf(fb->base)), nullptr);
  (void)v;
}

TEST_F(FbufTest, MultiHopTransferThreeDomains) {
  const PathId p3 = world_.fsys.paths().Register({src_->id(), dst_->id(), third_->id()});
  Fbuf* fb = AllocOn(*src_, p3, kPageSize);
  ASSERT_EQ(src_->WriteWord(fb->base, 0x33), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *dst_, *third_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  std::uint32_t got = 0;
  ASSERT_EQ(third_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0x33u);
  ASSERT_EQ(world_.fsys.Free(fb, *third_), Status::kOk);
}

TEST_F(FbufTest, TransferRequiresHolding) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  EXPECT_EQ(world_.fsys.Transfer(fb, *dst_, *third_), Status::kNotOwner);
  EXPECT_EQ(world_.fsys.Free(fb, *dst_), Status::kNotOwner);
}

TEST_F(FbufTest, DeallocationNoticePiggybacksOnRpc) {
  // The originator drops its reference first (driver-style handoff), so the
  // receiver's final free needs a notice back to the owner.
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  EXPECT_EQ(world_.fsys.PendingNotices(dst_->id(), src_->id()), 1u);
  EXPECT_FALSE(fb->free_listed);
  // Any RPC between the pair carries the notice.
  ASSERT_EQ(world_.rpc.Invoke(*dst_, *src_, [] { return Status::kOk; }), Status::kOk);
  EXPECT_EQ(world_.fsys.PendingNotices(dst_->id(), src_->id()), 0u);
  EXPECT_TRUE(fb->free_listed);
  EXPECT_EQ(world_.machine.stats().dealloc_notices, 1u);
  EXPECT_EQ(world_.machine.stats().dealloc_messages, 0u);
}

TEST_F(FbufTest, NoticeThresholdForcesExplicitMessage) {
  FbufConfig fcfg;
  fcfg.notice_threshold = 4;
  World w(ZeroCostConfig(), fcfg);
  Domain* s = w.AddDomain("s");
  Domain* d = w.AddDomain("d");
  const PathId p = w.fsys.paths().Register({s->id(), d->id()});
  for (int i = 0; i < 4; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*s, p, kPageSize, true, &fb), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *s, *d), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *s), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *d), Status::kOk);
  }
  // The 4th free hit the threshold: an explicit message was sent.
  EXPECT_EQ(w.machine.stats().dealloc_messages, 1u);
  EXPECT_EQ(w.fsys.PendingNotices(d->id(), s->id()), 0u);
}

TEST_F(FbufTest, ChunkQuotaLimitsAllocator) {
  FbufConfig fcfg;
  fcfg.chunk_pages = 2;
  fcfg.chunk_quota = 3;  // at most 6 pages
  World w(ZeroCostConfig(), fcfg);
  Domain* s = w.AddDomain("s");
  Domain* d = w.AddDomain("d");
  const PathId p = w.fsys.paths().Register({s->id(), d->id()});
  // A misbehaving receiver that never frees.
  std::vector<Fbuf*> leaked;
  for (int i = 0; i < 3; ++i) {
    Fbuf* fb = nullptr;
    ASSERT_EQ(w.fsys.Allocate(*s, p, 2 * kPageSize, true, &fb), Status::kOk);
    ASSERT_EQ(w.fsys.Transfer(fb, *s, *d), Status::kOk);
    ASSERT_EQ(w.fsys.Free(fb, *s), Status::kOk);
    leaked.push_back(fb);
  }
  Fbuf* fb = nullptr;
  EXPECT_EQ(w.fsys.Allocate(*s, p, 2 * kPageSize, true, &fb), Status::kQuotaExceeded);
  // Once the receiver frees, allocation succeeds again.
  ASSERT_EQ(w.fsys.Free(leaked[0], *d), Status::kOk);
  w.fsys.FlushNotices(d->id(), s->id());
  EXPECT_EQ(w.fsys.Allocate(*s, p, 2 * kPageSize, true, &fb), Status::kOk);
}

TEST_F(FbufTest, ReclaimDiscardsFreeListedMemoryAndReuseRematerializes) {
  Fbuf* fb = AllocOn(*src_, path_, 3 * kPageSize);
  ASSERT_EQ(src_->WriteWord(fb->base, 0x77), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  const std::uint32_t free_before = world_.machine.pmem().free_frames();
  EXPECT_EQ(world_.fsys.ReclaimFreeMemory(), 3u);
  EXPECT_EQ(world_.machine.pmem().free_frames(), free_before + 3);
  // Reuse: contents were discarded (cleared), mappings rebuilt.
  Fbuf* again = AllocOn(*src_, path_, 3 * kPageSize);
  ASSERT_EQ(again, fb);
  std::uint32_t got = 0xffff;
  ASSERT_EQ(src_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0u);
  ASSERT_EQ(src_->WriteWord(fb->base, 0x88), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(dst_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0x88u);
}

TEST_F(FbufTest, AbsentDataReadMapsZeroLeaf) {
  // A read by a domain with no mapping in the region completes and sees
  // zeros (§3.2.4); a write is a protection violation.
  const VirtAddr lonely = kFbufRegionBase + 123 * kPageSize;
  std::uint32_t got = 0xffffffff;
  ASSERT_EQ(third_->ReadWord(lonely, &got), Status::kOk);
  EXPECT_EQ(got, 0u);
  EXPECT_EQ(third_->WriteWord(lonely + kPageSize, 1), Status::kProtection);
}

TEST_F(FbufTest, AbsentLeafReadsCanBeDisabled) {
  FbufConfig fcfg;
  fcfg.absent_leaf_reads = false;
  World w(ZeroCostConfig(), fcfg);
  Domain* d = w.AddDomain("d");
  std::uint32_t got;
  EXPECT_EQ(d->ReadWord(kFbufRegionBase, &got), Status::kNotMapped);
}

TEST_F(FbufTest, PathDestructionFreesPathFbufs) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  ASSERT_TRUE(fb->free_listed);
  world_.fsys.DestroyPath(path_);
  EXPECT_TRUE(fb->dead);
  // New allocations on the dead path fall back to uncached.
  Fbuf* fb2 = AllocOn(*src_, path_, kPageSize);
  EXPECT_FALSE(fb2->cached);
}

TEST_F(FbufTest, InFlightFbufSurvivesPathDestructionUntilFreed) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(src_->WriteWord(fb->base, 0xabc), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  world_.fsys.DestroyPath(path_);
  EXPECT_FALSE(fb->dead);
  std::uint32_t got = 0;
  ASSERT_EQ(dst_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0xabcu);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  world_.fsys.FlushNotices(dst_->id(), src_->id());
  EXPECT_TRUE(fb->dead);
}

TEST_F(FbufTest, DomainTerminationReleasesHeldReferences) {
  // dst crashes holding a reference; the kernel relinquishes it so the
  // originator's buffer comes back.
  Fbuf* fb = AllocOn(*src_, kNoPath, kPageSize);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  EXPECT_FALSE(fb->dead);
  world_.machine.DestroyDomain(dst_->id());
  EXPECT_TRUE(fb->dead);
}

TEST_F(FbufTest, OriginatorTerminationRetainsChunksUntilRefsDrain) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(src_->WriteWord(fb->base, 0x99), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  const std::uint64_t region_free_before = world_.fsys.RegionFreePages();
  world_.machine.DestroyDomain(src_->id());
  // dst still holds a reference: the fbuf stays readable, the chunk is
  // retained.
  EXPECT_FALSE(fb->dead);
  std::uint32_t got = 0;
  ASSERT_EQ(dst_->ReadWord(fb->base, &got), Status::kOk);
  EXPECT_EQ(got, 0x99u);
  EXPECT_EQ(world_.fsys.RegionFreePages(), region_free_before);
  // When the external reference drains, the chunk returns to the region.
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  EXPECT_TRUE(fb->dead);
  EXPECT_GT(world_.fsys.RegionFreePages(), region_free_before);
}

TEST_F(FbufTest, TwoLevelAllocationAvoidsKernelInvolvement) {
  // Many small allocations within one chunk: only the first growth touches
  // the kernel (va_allocs counts kernel chunk grants).
  const std::uint64_t before = world_.machine.stats().va_allocs;
  std::vector<Fbuf*> fbs;
  for (int i = 0; i < 8; ++i) {
    fbs.push_back(AllocOn(*src_, path_, kPageSize));
  }
  EXPECT_EQ(world_.machine.stats().va_allocs - before, 1u);  // one 16-page chunk
  for (Fbuf* fb : fbs) {
    ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  }
}

TEST_F(FbufTest, DifferentPathsUseDifferentAllocators) {
  const PathId p2 = world_.fsys.paths().Register({src_->id(), third_->id()});
  Fbuf* a = AllocOn(*src_, path_, kPageSize);
  Fbuf* b = AllocOn(*src_, p2, kPageSize);
  ASSERT_EQ(world_.fsys.Free(a, *src_), Status::kOk);
  // Freeing on path 1 must not satisfy path 2 allocations.
  Fbuf* c = AllocOn(*src_, p2, kPageSize);
  EXPECT_NE(c, a);
  (void)b;
}

TEST_F(FbufTest, FindByAddrResolvesInteriorAddresses) {
  Fbuf* fb = AllocOn(*src_, path_, 2 * kPageSize);
  EXPECT_EQ(world_.fsys.FindByAddr(fb->base), fb);
  EXPECT_EQ(world_.fsys.FindByAddr(fb->base + kPageSize + 17), fb);
  EXPECT_EQ(world_.fsys.FindByAddr(fb->end()), nullptr);
  EXPECT_EQ(world_.fsys.FindByAddr(0x1000), nullptr);
}

TEST_F(FbufTest, AllocateZeroBytesRejected) {
  Fbuf* fb = nullptr;
  EXPECT_EQ(world_.fsys.Allocate(*src_, path_, 0, true, &fb), Status::kInvalidArgument);
}

TEST_F(FbufTest, DoubleFreeRejected) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  EXPECT_EQ(world_.fsys.Free(fb, *src_), Status::kInvalidArgument);
}

TEST_F(FbufTest, MultipleReferencesBySameDomain) {
  Fbuf* fb = AllocOn(*src_, path_, kPageSize);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);
  ASSERT_EQ(world_.fsys.Transfer(fb, *src_, *dst_), Status::kOk);  // second ref
  ASSERT_EQ(world_.fsys.Free(fb, *src_), Status::kOk);
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  EXPECT_FALSE(fb->free_listed);  // one reference remains
  ASSERT_EQ(world_.fsys.Free(fb, *dst_), Status::kOk);
  world_.fsys.FlushNotices(dst_->id(), src_->id());
  EXPECT_TRUE(fb->free_listed);
}

}  // namespace
}  // namespace fbufs
