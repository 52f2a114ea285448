// Tests for ATM cell segmentation/reassembly (AAL5-style).
#include <gtest/gtest.h>

#include "src/net/atm.h"
#include "src/sim/rng.h"

namespace fbufs {
namespace {

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return v;
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
}

TEST(Crc32, EmptyIsZeroXorMask) { EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u); }

TEST(Atm, SegmentProducesCellMultiples) {
  const auto pdu = Pattern(100, 1);
  const auto cells = AtmSegmenter::Segment(pdu, 42);
  // 100 + 8 trailer = 108 -> 3 cells of 48.
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_FALSE(cells[0].end_of_pdu);
  EXPECT_FALSE(cells[1].end_of_pdu);
  EXPECT_TRUE(cells[2].end_of_pdu);
  for (const AtmCell& c : cells) {
    EXPECT_EQ(c.vci, 42u);
  }
}

TEST(Atm, RoundTripExactSizes) {
  for (const std::size_t n :
       {1u, 39u, 40u, 41u, 48u, 88u, 89u, 96u, 1000u, 16384u}) {
    const auto pdu = Pattern(n, 9);
    const auto cells = AtmSegmenter::Segment(pdu, 7);
    // The wire-size formula the simulated links charge is the cell count.
    EXPECT_EQ(AalWireBytes(n), cells.size() * AtmCell::kPayloadBytes) << n;
    AtmReassembler r;
    std::vector<std::uint8_t> out;
    Status st = Status::kExhausted;
    for (const AtmCell& c : cells) {
      st = r.Push(c, &out);
    }
    ASSERT_EQ(st, Status::kOk) << n;
    EXPECT_EQ(out, pdu) << n;
  }
}

TEST(Atm, TrailerExactlyFillsLastCell) {
  // 40 bytes + 8 trailer == one cell exactly; 41 bytes forces two.
  EXPECT_EQ(AtmSegmenter::Segment(Pattern(40, 0), 1).size(), 1u);
  EXPECT_EQ(AtmSegmenter::Segment(Pattern(41, 0), 1).size(), 2u);
}

TEST(Atm, CorruptedPayloadFailsCrc) {
  const auto pdu = Pattern(500, 3);
  auto cells = AtmSegmenter::Segment(pdu, 7);
  cells[2].payload[10] ^= 0x40;  // bit error on the wire
  AtmReassembler r;
  std::vector<std::uint8_t> out;
  Status st = Status::kExhausted;
  for (const AtmCell& c : cells) {
    st = r.Push(c, &out);
  }
  EXPECT_EQ(st, Status::kTruncated);
  EXPECT_EQ(r.pdus_bad(), 1u);
  EXPECT_EQ(r.pdus_ok(), 0u);
}

TEST(Atm, LostCellFailsVerification) {
  const auto pdu = Pattern(500, 3);
  const auto cells = AtmSegmenter::Segment(pdu, 7);
  AtmReassembler r;
  std::vector<std::uint8_t> out;
  Status st = Status::kExhausted;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 1) {
      continue;  // cell eaten by the wire
    }
    st = r.Push(cells[i], &out);
  }
  EXPECT_EQ(st, Status::kTruncated);
}

TEST(Atm, ReassemblerRecoversAfterBadPdu) {
  AtmReassembler r;
  std::vector<std::uint8_t> out;
  // First: a corrupted PDU.
  auto bad = AtmSegmenter::Segment(Pattern(100, 1), 7);
  bad[0].payload[0] ^= 1;
  for (const AtmCell& c : bad) {
    r.Push(c, &out);
  }
  EXPECT_EQ(r.pdus_bad(), 1u);
  // Then a clean one reassembles fine (state was reset).
  const auto pdu = Pattern(100, 2);
  Status st = Status::kExhausted;
  for (const AtmCell& c : AtmSegmenter::Segment(pdu, 7)) {
    st = r.Push(c, &out);
  }
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(out, pdu);
  EXPECT_EQ(r.pending_bytes(), 0u);
}

TEST(Atm, RandomSizesProperty) {
  Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = 1 + rng.Below(20000);
    std::vector<std::uint8_t> pdu(n);
    for (auto& b : pdu) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    const auto cells = AtmSegmenter::Segment(pdu, 1);
    EXPECT_EQ(AalWireBytes(n), cells.size() * AtmCell::kPayloadBytes) << n;
    AtmReassembler r;
    std::vector<std::uint8_t> out;
    Status st = Status::kExhausted;
    for (const AtmCell& c : cells) {
      st = r.Push(c, &out);
    }
    ASSERT_EQ(st, Status::kOk) << n;
    ASSERT_EQ(out, pdu) << n;
  }
}

}  // namespace
}  // namespace fbufs
