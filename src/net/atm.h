// ATM cells and AAL5-style segmentation/reassembly.
//
// The Osiris board moves PDUs as streams of 53-byte ATM cells (48-byte
// payload). This module is the reference for that wire format: segmentation
// of a PDU into cells tagged with VCI and an end-of-PDU marker, and
// reassembly with length and CRC-32 verification, so cell loss and
// corruption are detectable exactly as AAL5 detects them.
//
// The simulated wire carries PDUs whole: no link corrupts, and a loss always
// drops a whole PDU, so the cells' only observable effect is the PDU's size
// on the wire, AalWireBytes.
#ifndef SRC_NET_ATM_H_
#define SRC_NET_ATM_H_

#include <cstdint>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/vm/types.h"

namespace fbufs {

struct AtmCell {
  static constexpr std::size_t kPayloadBytes = kCellPayloadBytes;

  std::uint32_t vci = 0;
  bool end_of_pdu = false;  // AAL5 uses the PTI bit of the last cell
  std::uint8_t payload[kPayloadBytes] = {};
};

// AAL5-style trailer carried in the last cell: payload length + CRC.
struct AalTrailer {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(AalTrailer) == 8);

// Bytes a |len|-byte PDU occupies on the wire: payload plus trailer, padded
// to whole cells — exactly the cells AtmSegmenter::Segment emits.
constexpr std::uint64_t AalWireBytes(std::uint64_t len) {
  return (len + sizeof(AalTrailer) + AtmCell::kPayloadBytes - 1) /
         AtmCell::kPayloadBytes * AtmCell::kPayloadBytes;
}

// CRC-32 (IEEE 802.3 polynomial, bitwise implementation — clarity over
// speed; the simulator is not bandwidth-bound on host cycles here).
std::uint32_t Crc32(const std::uint8_t* data, std::size_t len);

class AtmSegmenter {
 public:
  // Segments |pdu| into cells for |vci|: payload, zero padding, and the
  // 8-byte trailer aligned to the end of the final cell.
  static std::vector<AtmCell> Segment(const std::vector<std::uint8_t>& pdu,
                                      std::uint32_t vci);
};

class AtmReassembler {
 public:
  // Feeds one arriving cell. Returns kOk and fills |*pdu| when the cell
  // completes a PDU whose length and CRC verify; kTruncated when the
  // end-of-PDU cell arrives but verification fails (the PDU is discarded);
  // kExhausted while more cells are needed.
  Status Push(const AtmCell& cell, std::vector<std::uint8_t>* pdu);

  std::uint64_t pdus_ok() const { return pdus_ok_; }
  std::uint64_t pdus_bad() const { return pdus_bad_; }
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::uint64_t pdus_ok_ = 0;
  std::uint64_t pdus_bad_ = 0;
};

}  // namespace fbufs

#endif  // SRC_NET_ATM_H_
