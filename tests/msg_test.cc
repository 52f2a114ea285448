// Tests for the aggregate message DAG: construction, join/split/clip,
// data access.
#include <gtest/gtest.h>

#include "src/msg/message.h"
#include "tests/test_util.h"

namespace fbufs {
namespace {

using testing_util::World;
using testing_util::ZeroCostConfig;

class MsgTest : public ::testing::Test {
 protected:
  MsgTest() : world_(ZeroCostConfig()) {
    src_ = world_.AddDomain("src");
    dst_ = world_.AddDomain("dst");
    path_ = world_.fsys.paths().Register({src_->id(), dst_->id()});
  }

  // Allocates an fbuf filled with a recognizable byte pattern.
  Fbuf* Filled(std::uint64_t bytes, std::uint8_t seed) {
    Fbuf* fb = nullptr;
    EXPECT_EQ(world_.fsys.Allocate(*src_, path_, bytes, true, &fb), Status::kOk);
    std::vector<std::uint8_t> data(bytes);
    for (std::uint64_t i = 0; i < bytes; ++i) {
      data[i] = static_cast<std::uint8_t>(seed + i);
    }
    EXPECT_EQ(src_->WriteBytes(fb->base, data.data(), bytes), Status::kOk);
    return fb;
  }

  std::vector<std::uint8_t> Read(const Message& m, Domain& d) {
    std::vector<std::uint8_t> out(m.length());
    EXPECT_EQ(m.CopyOut(d, 0, out.data(), out.size()), Status::kOk);
    return out;
  }

  World world_;
  Domain* src_;
  Domain* dst_;
  PathId path_;
};

TEST_F(MsgTest, EmptyMessage) {
  Message m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.length(), 0u);
  EXPECT_EQ(m.Extents().size(), 0u);
  EXPECT_EQ(m.NodeCount(), 0u);
}

TEST_F(MsgTest, LeafViewsFbufBytes) {
  Fbuf* fb = Filled(100, 10);
  Message m = Message::Whole(fb);
  EXPECT_EQ(m.length(), 100u);
  const auto data = Read(m, *src_);
  EXPECT_EQ(data[0], 10);
  EXPECT_EQ(data[99], static_cast<std::uint8_t>(10 + 99));
}

TEST_F(MsgTest, ConcatJoinsWithoutCopying) {
  Fbuf* a = Filled(64, 0);
  Fbuf* b = Filled(32, 100);
  Message m = Message::Concat(Message::Whole(a), Message::Whole(b));
  EXPECT_EQ(m.length(), 96u);
  EXPECT_EQ(m.Fbufs().size(), 2u);
  const auto data = Read(m, *src_);
  EXPECT_EQ(data[0], 0);
  EXPECT_EQ(data[64], 100);
  EXPECT_EQ(world_.machine.stats().bytes_copied, 0u);
}

TEST_F(MsgTest, SliceClipsSharedView) {
  Fbuf* a = Filled(64, 0);
  Fbuf* b = Filled(64, 64);
  Message m = Message::Concat(Message::Whole(a), Message::Whole(b));
  // Slice straddling the seam.
  Message s = m.Slice(60, 8);
  EXPECT_EQ(s.length(), 8u);
  const auto data = Read(s, *src_);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(data[i], static_cast<std::uint8_t>(60 + i));
  }
  EXPECT_EQ(s.Extents().size(), 2u);
}

TEST_F(MsgTest, SliceBeyondEndTruncates) {
  Fbuf* a = Filled(10, 0);
  Message m = Message::Whole(a);
  Message s = m.Slice(6, 100);
  EXPECT_EQ(s.length(), 4u);
  Message s2 = m.Slice(50, 10);
  EXPECT_TRUE(s2.empty());
}

TEST_F(MsgTest, SplitPreservesAllBytes) {
  Fbuf* a = Filled(128, 5);
  Message m = Message::Whole(a);
  auto [head, tail] = m.Split(40);
  EXPECT_EQ(head.length(), 40u);
  EXPECT_EQ(tail.length(), 88u);
  const auto h = Read(head, *src_);
  const auto t = Read(tail, *src_);
  EXPECT_EQ(h[39], static_cast<std::uint8_t>(5 + 39));
  EXPECT_EQ(t[0], static_cast<std::uint8_t>(5 + 40));
}

TEST_F(MsgTest, FragmentAndReassembleRoundTrip) {
  // The IP pattern: fragment into PDU-sized views, reassemble by joining.
  Fbuf* a = Filled(1000, 1);
  Message m = Message::Whole(a);
  std::vector<Message> frags;
  for (std::uint64_t off = 0; off < m.length(); off += 300) {
    frags.push_back(m.Slice(off, 300));
  }
  Message re;
  for (const Message& f : frags) {
    re = Message::Concat(re, f);
  }
  EXPECT_EQ(re.length(), 1000u);
  EXPECT_EQ(Read(re, *src_), Read(m, *src_));
}

TEST_F(MsgTest, AbsentLeafReadsZeros) {
  Fbuf* a = Filled(16, 7);
  Message m = Message::Concat(Message::Whole(a), Message::Absent(8));
  EXPECT_EQ(m.length(), 24u);
  const auto data = Read(m, *src_);
  EXPECT_EQ(data[15], static_cast<std::uint8_t>(7 + 15));
  for (int i = 16; i < 24; ++i) {
    EXPECT_EQ(data[i], 0);
  }
}

TEST_F(MsgTest, SelfConcatDuplicatesContent) {
  Fbuf* a = Filled(8, 42);
  Message m = Message::Whole(a);
  Message doubled = Message::Concat(m, m);
  EXPECT_EQ(doubled.length(), 16u);
  const auto data = Read(doubled, *src_);
  EXPECT_EQ(data[0], data[8]);
  EXPECT_EQ(doubled.Fbufs().size(), 1u);  // one distinct fbuf
}

TEST_F(MsgTest, CopyOutPartialRange) {
  Fbuf* a = Filled(256, 0);
  Message m = Message::Whole(a);
  std::uint8_t buf[16];
  ASSERT_EQ(m.CopyOut(*src_, 100, buf, 16), Status::kOk);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(buf[i], static_cast<std::uint8_t>(100 + i));
  }
  // Reading past the end truncates.
  EXPECT_EQ(m.CopyOut(*src_, 250, buf, 16), Status::kTruncated);
}

TEST_F(MsgTest, TouchReadByReceiverAfterTransfer) {
  Fbuf* a = Filled(2 * kPageSize, 1);
  ASSERT_EQ(world_.fsys.Transfer(a, *src_, *dst_), Status::kOk);
  Message m = Message::Whole(a);
  EXPECT_EQ(m.Touch(*dst_, Access::kRead), Status::kOk);
  // Receiver write through the message must fail (immutability).
  EXPECT_EQ(m.Touch(*dst_, Access::kWrite), Status::kProtection);
}

TEST_F(MsgTest, DeepConcatChainHandled) {
  // 1000-leaf chain: traversal must not recurse.
  Fbuf* a = Filled(1000, 0);
  Message m;
  for (int i = 0; i < 1000; ++i) {
    m = Message::Concat(m, Message::Leaf(a, static_cast<std::uint64_t>(i), 1));
  }
  EXPECT_EQ(m.length(), 1000u);
  EXPECT_EQ(m.Extents().size(), 1000u);
  const auto data = Read(m, *src_);
  EXPECT_EQ(data[999], static_cast<std::uint8_t>(999));
}

}  // namespace
}  // namespace fbufs
